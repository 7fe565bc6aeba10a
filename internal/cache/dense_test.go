package cache

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// rowScanCache is the tag store as it was before the dense rows: a slice of
// 40-byte line structs per set, a hash and a scan per operation, Probe next
// to Access. It is the reference the dense-row Cache must equal, result for
// result and snapshot for snapshot.
type rowScanCache struct {
	cfg       Config
	sets      [][]rowScanLine
	clock     uint64
	stats     Stats
	lineShift uint
}

type rowScanLine struct {
	valid, dirty bool
	tag          uint64
	lastUse      uint64
	sharers      uint64
	lastCluster  int
}

func newRowScanCache(cfg Config) *rowScanCache {
	c := &rowScanCache{cfg: cfg, sets: make([][]rowScanLine, cfg.Sets()), lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes)))}
	for i := range c.sets {
		c.sets[i] = make([]rowScanLine, cfg.Ways)
	}
	return c
}

func (c *rowScanCache) set(addr uint64) (set []rowScanLine, tag uint64) {
	tag = addr >> c.lineShift
	return c.sets[int((tag*0x9E3779B97F4A7C15>>24)%uint64(len(c.sets)))], tag
}

func (c *rowScanCache) probe(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *rowScanCache) access(addr uint64, kind AccessKind, cluster int) Result {
	c.clock++
	set, tag := c.set(addr)
	c.stats.Accesses++
	if kind == Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].lastUse = c.clock
			if cluster >= 0 {
				set[i].sharers |= 1 << uint(cluster)
				set[i].lastCluster = cluster
			}
			res := Result{Hit: true}
			if kind == Write {
				if c.cfg.Policy == WriteBack {
					set[i].dirty = true
				}
				res.WritebackReq = c.cfg.Policy == WriteThrough
			}
			return res
		}
	}
	c.stats.Misses++
	if kind == Write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < oldest {
			oldest, victim = set[i].lastUse, i
		}
	}
	var res Result
	if set[victim].valid {
		c.stats.Evictions++
		res.Evicted = true
		res.EvictedAddr = set[victim].tag << c.lineShift
		if set[victim].dirty {
			c.stats.Writebacks++
			res.WritebackReq = true
		}
	}
	set[victim] = rowScanLine{valid: true, tag: tag, lastUse: c.clock}
	if cluster >= 0 {
		set[victim].sharers = 1 << uint(cluster)
		set[victim].lastCluster = cluster
	}
	if kind == Write {
		if c.cfg.Policy == WriteBack {
			set[victim].dirty = true
		} else {
			res.WritebackReq = true
		}
	}
	return res
}

func (c *rowScanCache) invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			present, dirty = true, set[i].dirty
			set[i] = rowScanLine{}
			return
		}
	}
	return false, false
}

// each visits every line in slot order.
func (c *rowScanCache) each(f func(slot int, l *rowScanLine)) {
	for s := range c.sets {
		for w := range c.sets[s] {
			f(s*c.cfg.Ways+w, &c.sets[s][w])
		}
	}
}

func (c *rowScanCache) flushAll() (valid, dirty int) {
	c.each(func(_ int, l *rowScanLine) {
		if l.valid {
			valid++
			if l.dirty {
				dirty++
			}
		}
		*l = rowScanLine{}
	})
	return
}

func (c *rowScanCache) resetSharers() {
	c.each(func(_ int, l *rowScanLine) { l.sharers = 0 })
}

func (c *rowScanCache) sharerHistogram() (h [5]int) {
	c.each(func(_ int, l *rowScanLine) {
		if !l.valid || l.sharers == 0 {
			return
		}
		h[4]++
		switch n := bits.OnesCount64(l.sharers); {
		case n <= 1:
			h[0]++
		case n == 2:
			h[1]++
		case n <= 4:
			h[2]++
		default:
			h[3]++
		}
	})
	return
}

// saveState lays the lines out as Cache.SaveState does.
func (c *rowScanCache) saveState() State {
	st := State{Slots: len(c.sets) * c.cfg.Ways, Clock: c.clock, Stats: c.stats}
	st.Valid = make([]uint64, (st.Slots+63)/64)
	var dirty []bool
	c.each(func(slot int, l *rowScanLine) {
		if !l.valid {
			return
		}
		st.Valid[slot>>6] |= 1 << (slot & 63)
		dirty = append(dirty, l.dirty)
		st.Tags = append(st.Tags, l.tag)
		st.LastUse = append(st.LastUse, l.lastUse)
		st.Sharers = append(st.Sharers, l.sharers)
		st.LastCluster = append(st.LastCluster, l.lastCluster)
	})
	st.Dirty = make([]uint64, (len(dirty)+63)/64)
	for k, d := range dirty {
		if d {
			st.Dirty[k>>6] |= 1 << (k & 63)
		}
	}
	return st
}

func (c *rowScanCache) restoreState(st State) {
	k := 0
	c.each(func(slot int, l *rowScanLine) {
		*l = rowScanLine{}
		if st.Valid[slot>>6]>>(slot&63)&1 == 0 {
			return
		}
		*l = rowScanLine{valid: true, dirty: st.Dirty[k>>6]>>(k&63)&1 != 0, tag: st.Tags[k],
			lastUse: st.LastUse[k], sharers: st.Sharers[k], lastCluster: st.LastCluster[k]}
		k++
	})
	c.clock, c.stats = st.Clock, st.Stats
}

// TestDenseRowsMatchRowScan drives the Cache and the row-scan reference with
// the same random traffic on a one-set cache, the L1's 64 sets (mask index)
// and an LLC slice's 48 (modulo index): every Find, Access, AccessAt after a
// Find, Invalidate and FlushAll must agree, as must the statistics, the
// sharer histogram and the snapshot — also after restoring each side from
// the other's snapshot.
func TestDenseRowsMatchRowScan(t *testing.T) {
	for _, g := range []struct {
		name string
		cfg  Config
	}{
		{"1-set", Config{SizeBytes: 4 * 128, Ways: 4, LineBytes: 128, Policy: WriteBack}},
		{"64-sets-mask", Config{SizeBytes: 48 * 1024, Ways: 6, LineBytes: 128, Policy: WriteThrough}},
		{"48-sets-modulo", Config{SizeBytes: 96 * 1024, Ways: 16, LineBytes: 128, Policy: WriteBack}},
	} {
		t.Run(g.name, func(t *testing.T) {
			c, ref := New(g.cfg), newRowScanCache(g.cfg)
			if c.pow2 != (g.name != "48-sets-modulo") {
				t.Fatalf("%d sets: pow2 = %v", c.Sets(), c.pow2)
			}
			rng := rand.New(rand.NewSource(11))
			lines := 3 * c.Sets() * g.cfg.Ways // 3x the capacity: victims get reused
			addr := func() uint64 {
				a := uint64(rng.Intn(lines))<<7 | uint64(rng.Intn(128))
				if rng.Intn(4) == 0 {
					a += uint64(1+rng.Intn(3)) << 40 // a multi-program address space
				}
				return a
			}
			for step := 0; step < 60_000; step++ {
				switch k := rng.Intn(1000); {
				case k < 600:
					a, kind, cluster := addr(), AccessKind(rng.Intn(2)), rng.Intn(9)-1
					if got, want := c.Access(a, kind, cluster), ref.access(a, kind, cluster); got != want {
						t.Fatalf("step %d: Access(%#x, %v, %d) = %+v, row scan %+v", step, a, kind, cluster, got, want)
					}
				case k < 900:
					a, kind, cluster := addr(), AccessKind(rng.Intn(2)), rng.Intn(9)-1
					at := c.Find(a)
					if want := ref.probe(a); at.Hit() != want {
						t.Fatalf("step %d: Find(%#x).Hit() = %v, row scan %v", step, a, at.Hit(), want)
					}
					if rng.Intn(2) == 0 { // a structural stall: looked, did not touch
						continue
					}
					if got, _ := c.AccessAt(at, kind, cluster); got != ref.access(a, kind, cluster) {
						t.Fatalf("step %d: AccessAt(%#x, %v, %d) = %+v, row scan disagrees", step, a, kind, cluster, got)
					}
				case k < 970:
					a := addr()
					p, d := c.Invalidate(a)
					if rp, rd := ref.invalidate(a); p != rp || d != rd {
						t.Fatalf("step %d: Invalidate(%#x) = %v,%v, row scan %v,%v", step, a, p, d, rp, rd)
					}
				case k < 985:
					c.ResetSharers()
					ref.resetSharers()
				case k < 990:
					v, d := c.FlushAll()
					if rv, rd := ref.flushAll(); v != rv || d != rd {
						t.Fatalf("step %d: FlushAll = %d,%d, row scan %d,%d", step, v, d, rv, rd)
					}
				case k < 995:
					st := ref.saveState()
					c = New(g.cfg)
					if err := c.RestoreState(st); err != nil {
						t.Fatal(err)
					}
				default:
					ref.restoreState(c.SaveState())
				}
				if step%64 != 0 {
					continue
				}
				if got, want := c.SaveState(), ref.saveState(); !bytes.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
					t.Fatalf("step %d: snapshots differ:\n%+v\n%+v", step, got, want)
				}
				one, two, threeFour, fivePlus, total := c.SharerHistogram()
				if got, want := [5]int{one, two, threeFour, fivePlus, total}, ref.sharerHistogram(); got != want {
					t.Fatalf("step %d: histogram %v, row scan %v", step, got, want)
				}
				if c.Stats() != ref.stats {
					t.Fatalf("step %d: stats %+v, row scan %+v", step, c.Stats(), ref.stats)
				}
			}
			if st := c.Stats(); st.Hits == 0 || st.Evictions == 0 || st.Writes == 0 {
				t.Errorf("drive did not reach every path: %+v", st)
			}
		})
	}
}

// earlyExitFind is Find as it was before short rows went branch-free: stop at
// the first way that matches.
func earlyExitFind(c *Cache, addr uint64) Slot {
	tag := addr >> c.lineShift
	set := hashLine(tag) % c.nsets
	base := int(set) * c.ways
	for i, word := range c.tags[base : base+c.ways] {
		if word == tag+1 {
			return Slot{tag + 1, base + i}
		}
	}
	return Slot{tag + 1, ^base}
}

// TestFindMatchesEarlyExitScan holds Find to the early-exit scan on random
// fills of rows on both sides of shortRow — the L1's 6 ways, 8 and 9, an LLC
// slice's 16 — with invalidations leaving holes anywhere in a row. The slot
// AccessAt reports must hold the line it was given, and be where Find finds
// the line next.
func TestFindMatchesEarlyExitScan(t *testing.T) {
	for _, ways := range []int{6, shortRow, shortRow + 1, 16} {
		t.Run(fmt.Sprintf("%d-ways", ways), func(t *testing.T) {
			c := New(Config{SizeBytes: 48 * ways * 128, Ways: ways, LineBytes: 128, Policy: WriteBack})
			rng := rand.New(rand.NewSource(int64(ways)))
			lines := 3 * len(c.tags)
			hits := 0
			for step := 0; step < 50_000; step++ {
				a := uint64(rng.Intn(lines))<<7 | uint64(rng.Intn(128))
				found := c.Find(a)
				if want := earlyExitFind(c, a); found != want {
					t.Fatalf("step %d: Find(%#x) = %+v, early-exit scan %+v", step, a, found, want)
				}
				if found.Hit() {
					hits++
				}
				if rng.Intn(8) == 0 {
					c.Invalidate(a)
					continue
				}
				_, slot := c.AccessAt(found, AccessKind(rng.Intn(2)), rng.Intn(9)-1)
				if c.tags[slot] != found.key || c.Find(a).Index() != slot {
					t.Fatalf("step %d: AccessAt(%#x) reported slot %d, which holds tag word %#x, not %#x", step, a, slot, c.tags[slot], found.key)
				}
			}
			if hits == 0 || c.Stats().Evictions == 0 {
				t.Errorf("drive did not reach every path: %d hits, %+v", hits, c.Stats())
			}
		})
	}
}

// TestTagWordAddressRange pins what the valid-in-the-tag-word encoding (line
// number + 1, zero invalid) can hold: every line number but the all-ones one,
// which is every address once a line is two bytes or more — the top of the
// address space and multi-program appID<<40 offsets included — and, for
// byte-sized lines, every address but the last.
func TestTagWordAddressRange(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 128, Ways: 2, LineBytes: 128, Policy: WriteBack}) // one set
	top := ^uint64(0)
	for _, a := range []uint64{0, 127, 7<<40 | 0x1234, 1 << 63, top} {
		if c.Find(a).Hit() {
			t.Fatalf("%#x resident in a cache that never saw it", a)
		}
		c.Access(a, Write, 0)
		if !c.Find(a).Hit() || !c.Find(c.LineAddr(a)).Hit() {
			t.Fatalf("%#x not resident after an access", a)
		}
		c.Access(a^128, Read, 0) // its neighbour: the set now holds both
		if res := c.Access(a^256, Read, 0); !res.Evicted || !res.WritebackReq || res.EvictedAddr != c.LineAddr(a) {
			t.Fatalf("eviction of %#x reported %+v", a, res)
		}
		st := c.SaveState()
		if err := New(c.Config()).RestoreState(st); err != nil {
			t.Fatalf("snapshot holding the neighbours of %#x: %v", a, err)
		}
		c.FlushAll()
	}

	byteLines := New(Config{SizeBytes: 2, Ways: 2, LineBytes: 1, Policy: WriteBack})
	byteLines.Access(top-1, Read, 0)
	if !byteLines.Find(top-1).Hit() || byteLines.Find(top-2).Hit() || byteLines.ValidLines() != 1 {
		t.Error("the last representable line number did not round-trip")
	}
	st := byteLines.SaveState()
	st.Tags[0] = top // the one line number a tag word cannot hold
	if err := byteLines.RestoreState(st); err == nil {
		t.Error("a snapshot holding the all-ones line number was accepted")
	}
}
