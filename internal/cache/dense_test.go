package cache

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/wire"
)

// rowScanCache is the tag store as it was before the dense rows and the
// recency words: a slice of line structs per set, each with its own LRU
// timestamp, a hash and a scan per operation, Probe next to Access. It is
// the reference the Cache must equal, result for result — evictions
// included — and snapshot for snapshot.
type rowScanCache struct {
	cfg       Config
	sets      [][]rowScanLine
	clock     uint64
	lineShift uint
}

type rowScanLine struct {
	valid, dirty bool
	tag          uint64
	lastUse      uint64
	sharers      uint64
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
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.clock
			if cluster >= 0 {
				set[i].sharers |= 1 << uint(cluster)
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
		res.Evicted = true
		res.EvictedAddr = set[victim].tag << c.lineShift
		if set[victim].dirty {
			res.WritebackReq = true
		}
	}
	set[victim] = rowScanLine{valid: true, tag: tag, lastUse: c.clock}
	if cluster >= 0 {
		set[victim].sharers = 1 << uint(cluster)
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

func (c *rowScanCache) reset(p WritePolicy) {
	c.flushAll()
	c.cfg.Policy = p
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

// appendState writes the lines in the v7 layout Cache.AppendState writes,
// laid out here by hand from the line structs: a line's recency position is
// how many valid lines of its set carry a later stamp.
func (c *rowScanCache) appendState(b []byte) []byte {
	var valid, dirty []bool
	var tags, sharers []uint64
	var recency []byte
	shared := false
	c.each(func(_ int, l *rowScanLine) {
		valid = append(valid, l.valid)
	})
	for _, set := range c.sets {
		for _, l := range set {
			if !l.valid {
				continue
			}
			dirty = append(dirty, l.dirty)
			tags = append(tags, l.tag)
			rank := byte(0)
			for _, o := range set {
				if o.valid && o.lastUse > l.lastUse {
					rank++
				}
			}
			recency = append(recency, rank)
			sharers = append(sharers, l.sharers)
			shared = shared || l.sharers != 0
		}
	}
	b = wire.AppendUvarint(b, uint64(len(valid)))
	b = append(b, packBits(valid)...)
	b = append(b, packBits(dirty)...)
	for _, t := range tags {
		b = wire.AppendUvarint(b, t)
	}
	b = append(b, recency...)
	b = wire.AppendBool(b, shared)
	for _, s := range sharers {
		if shared {
			b = wire.AppendUvarint(b, s)
		}
	}
	return b
}

// packBits is bs as little-endian bytes, a bit each.
func packBits(bs []bool) []byte {
	p := make([]byte, (len(bs)+7)/8)
	for i, v := range bs {
		if v {
			p[i/8] |= 1 << (i % 8)
		}
	}
	return p
}

// restoreState reads the v7 layout back, stamping each set's lines in their
// recency order below a clock advanced past every position.
func (c *rowScanCache) restoreState(tb testing.TB, b []byte) {
	tb.Helper()
	r := wire.NewReader(b)
	slots := int(r.Uvarint())
	valid := r.Take((slots + 7) / 8)
	n := 0
	for i := 0; i < slots; i++ {
		n += int(valid[i/8] >> (i % 8) & 1)
	}
	dirty := r.Take((n + 7) / 8)
	tags := make([]uint64, n)
	for k := range tags {
		tags[k] = r.Uvarint()
	}
	recency := r.Take(n)
	var sharers []uint64
	if r.Bool() {
		sharers = make([]uint64, n)
		for k := range sharers {
			sharers[k] = r.Uvarint()
		}
	}
	if err := r.Done(); err != nil {
		tb.Fatal(err)
	}
	c.clock += MaxWays
	k := 0
	c.each(func(slot int, l *rowScanLine) {
		*l = rowScanLine{}
		if valid[slot/8]>>(slot%8)&1 == 0 {
			return
		}
		*l = rowScanLine{valid: true, dirty: dirty[k/8]>>(k%8)&1 != 0, tag: tags[k],
			lastUse: c.clock - uint64(recency[k])}
		if sharers != nil {
			l.sharers = sharers[k]
		}
		k++
	})
}

// snapshot is c's wire form.
func snapshot(c *Cache) []byte { return c.AppendState(nil) }

// restore reads b into c and returns the reader's verdict.
func restore(c *Cache, b []byte) error {
	r := wire.NewReader(b)
	c.RestoreState(r)
	return r.Done()
}

// columns returns where the tag and the recency columns of a Cache's wire
// form start.
func columns(tb testing.TB, b []byte) (tags, recency int) {
	tb.Helper()
	r := wire.NewReader(b)
	slots := r.Uvarint()
	n := 0
	for _, v := range r.Take(int(slots+7) / 8) {
		n += bits.OnesCount8(v)
	}
	tags = len(wire.AppendUvarint(nil, slots)) + int(slots+7)/8 + (n+7)/8
	recency = tags
	r.Take((n + 7) / 8)
	for i := 0; i < n; i++ {
		recency += len(wire.AppendUvarint(nil, r.Uvarint()))
	}
	if err := r.Err(); err != nil {
		tb.Fatal(err)
	}
	return tags, recency
}

// The operations a twin drive applies to both sides.
const (
	opAccess       = iota
	opFindAccess   // Find, then AccessAt the Slot
	opFindStall    // Find, then a structural stall: looked, did not touch
	opInvalidate   //
	opResetSharers //
	opFlush        //
	opReset        // Reset, to the other write policy
	opRoundTrip    // the Cache rebuilt from its own wire form
	opRestoreCache // the Cache rebuilt from the reference's snapshot, through the wire
	opRestoreRef   // the reference rebuilt from the Cache's snapshot, through the wire
	numOps
)

// twin drives a Cache and the row-scan reference in step.
type twin struct {
	tb                        testing.TB
	c                         *Cache
	ref                       *rowScanCache
	hits, evictions, restores int
}

func newTwin(tb testing.TB, cfg Config) *twin {
	return &twin{tb: tb, c: New(cfg), ref: newRowScanCache(cfg)}
}

// step applies one operation to both sides and fails on any disagreement.
func (w *twin) step(step, op int, a uint64, kind AccessKind, cluster int) {
	tb, c, ref := w.tb, w.c, w.ref
	tb.Helper()
	switch op {
	case opAccess, opFindAccess, opFindStall:
		var got Result
		if op == opAccess {
			got = c.Access(a, kind, cluster)
		} else {
			at := c.Find(a)
			if want := ref.probe(a); at.Hit() != want {
				tb.Fatalf("step %d: Find(%#x).Hit() = %v, row scan %v", step, a, at.Hit(), want)
			}
			if op == opFindStall {
				return
			}
			got, _ = c.AccessAt(at, kind, cluster)
		}
		if want := ref.access(a, kind, cluster); got != want {
			tb.Fatalf("step %d: access(%#x, %v, %d) = %+v, row scan %+v", step, a, kind, cluster, got, want)
		}
		if got.Hit {
			w.hits++
		}
		if got.Evicted {
			w.evictions++
		}
	case opInvalidate:
		p, d := c.Invalidate(a)
		if rp, rd := ref.invalidate(a); p != rp || d != rd {
			tb.Fatalf("step %d: Invalidate(%#x) = %v,%v, row scan %v,%v", step, a, p, d, rp, rd)
		}
	case opResetSharers:
		c.ResetSharers()
		ref.resetSharers()
	case opFlush:
		v, d := c.FlushAll()
		if rv, rd := ref.flushAll(); v != rv || d != rd {
			tb.Fatalf("step %d: FlushAll = %d,%d, row scan %d,%d", step, v, d, rv, rd)
		}
	case opReset:
		p := WritePolicy(1 - c.Config().Policy)
		c.Reset(p)
		ref.reset(p)
	case opRoundTrip, opRestoreCache:
		b := snapshot(c)
		if op == opRestoreCache {
			b = ref.appendState(nil)
		}
		w.c = New(c.Config())
		if err := restore(w.c, b); err != nil {
			tb.Fatalf("step %d: %v", step, err)
		}
		w.restores++
	case opRestoreRef:
		ref.restoreState(tb, snapshot(c))
		w.restores++
	}
}

// check compares the two sides' snapshots, byte for byte on the wire, and
// sharer histograms.
func (w *twin) check(step int) {
	w.tb.Helper()
	if got, want := snapshot(w.c), w.ref.appendState(nil); !bytes.Equal(got, want) {
		w.tb.Fatalf("step %d: snapshots differ:\n%x\n%x", step, got, want)
	}
	one, two, threeFour, fivePlus, total := w.c.SharerHistogram()
	if got, want := [5]int{one, two, threeFour, fivePlus, total}, w.ref.sharerHistogram(); got != want {
		w.tb.Fatalf("step %d: histogram %v, row scan %v", step, got, want)
	}
}

// TestDenseRowsMatchRowScan drives the Cache and the timestamp reference
// with the same random traffic on every associativity the recency word must
// hold — 1 and 16 ways (an empty and a full word), the L1's 6, an LLC
// slice's 16 and both sides of shortRow — over one set, an LLC slice's 48
// (modulo index) and the L1's 64 (mask index): every Find, Access, AccessAt
// after a Find, Invalidate, FlushAll and Reset must agree, evicted address
// included, as must the sharer histogram and the snapshot — also after
// restoring either side from the other's snapshot through its wire form.
func TestDenseRowsMatchRowScan(t *testing.T) {
	for _, g := range []struct {
		name string
		sets int
	}{{"1-set", 1}, {"48-sets-modulo", 48}, {"64-sets-mask", 64}} {
		sets := g.sets
		t.Run(g.name, func(t *testing.T) {
			for _, ways := range []int{1, 2, 6, shortRow, shortRow + 1, 15, MaxWays} {
				t.Run(fmt.Sprintf("%d-ways", ways), func(t *testing.T) {
					policy := WritePolicy(ways % 2)
					w := newTwin(t, Config{SizeBytes: sets * ways * 128, Ways: ways, LineBytes: 128, Policy: policy})
					if w.c.pow2 != (sets != 48) {
						t.Fatalf("%d sets: pow2 = %v", sets, w.c.pow2)
					}
					rng := rand.New(rand.NewSource(int64(11 + sets + ways)))
					lines := 3 * sets * ways // 3x the capacity: victims get reused
					addr := func() uint64 {
						a := uint64(rng.Intn(lines))<<7 | uint64(rng.Intn(128))
						if rng.Intn(4) == 0 {
							a += uint64(1+rng.Intn(3)) << 40 // a multi-program address space
						}
						return a
					}
					writes := 0
					for step := 0; step < 20_000; step++ {
						var op int
						switch k := rng.Intn(1000); {
						case k < 600:
							op = opAccess
						case k < 750:
							op = opFindAccess
						case k < 900:
							op = opFindStall
						case k < 970:
							op = opInvalidate
						case k < 985:
							op = opResetSharers
						case k < 989:
							op = opFlush
						case k < 990:
							op = opReset
						case k < 993:
							op = opRoundTrip
						case k < 996:
							op = opRestoreCache
						default:
							op = opRestoreRef
						}
						kind := AccessKind(rng.Intn(2))
						if op <= opFindAccess && kind == Write {
							writes++
						}
						w.step(step, op, addr(), kind, rng.Intn(9)-1)
						if step%64 == 0 {
							w.check(step)
						}
					}
					w.check(-1)
					if w.hits == 0 || w.evictions == 0 || writes == 0 || w.restores == 0 {
						t.Errorf("drive did not reach every path: %d hits, %d evictions, %d writes, %d restores", w.hits, w.evictions, writes, w.restores)
					}
				})
			}
		})
	}
}

// FuzzRecencyOrder holds the recency words to the timestamp reference on
// fuzzed operation streams. The first two bytes pick the geometry (1-16
// ways; 1, 2, 3, 48 or 64 sets); every four after them are one operation:
// its kind, a two-byte line number over three times the capacity, and the
// access kind and cluster.
func FuzzRecencyOrder(f *testing.F) {
	f.Add([]byte{15, 3, 0, 1, 0, 0, 0, 2, 0, 1})
	f.Add(bytes.Repeat([]byte{5, 1, 0, 7, 0, 3, 1, 9, 0, 4, 2, 200, 1, 2}, 40))
	f.Add(bytes.Repeat([]byte{15, 4, 0, 0x31, 0, 5, 1, 0x80, 1, 0, 3, 0x11, 0, 2, 7, 0x42, 2, 8}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := 1 + int(data[0])%MaxWays
		sets := []int{1, 2, 3, 48, 64}[int(data[1])%5]
		w := newTwin(t, Config{SizeBytes: sets * ways * 128, Ways: ways, LineBytes: 128, Policy: WritePolicy(data[0] >> 4 & 1)})
		lines := 3 * sets * ways
		for i := 2; i+4 <= len(data) && i < 2+4*4096; i += 4 {
			op := int(data[i]) % numOps
			a := uint64(int(data[i+1])|int(data[i+2])<<8) % uint64(lines) << 7
			kind, cluster := AccessKind(data[i+3]&1), int(data[i+3]>>1)%9-1
			w.step(i, op, a, kind, cluster)
			if i%16 == 2 {
				w.check(i)
			}
		}
		w.check(-1)
	})
}

// earlyExitFind is Find as it was before short rows went branch-free: stop at
// the first way that matches.
func earlyExitFind(c *Cache, addr uint64) Slot {
	tag := addr >> c.lineShift
	set := hashLine(tag) % c.nsets
	base := int(set) * c.ways
	for i, word := range c.tags[base : base+c.ways] {
		if word == tag+1 {
			return Slot{tag + 1, base + i, int(set)}
		}
	}
	return Slot{tag + 1, -1, int(set)}
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
			hits, evictions := 0, 0
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
				res, slot := c.AccessAt(found, AccessKind(rng.Intn(2)), rng.Intn(9)-1)
				if res.Evicted {
					evictions++
				}
				if c.tags[slot] != found.key || c.Find(a).Index() != slot {
					t.Fatalf("step %d: AccessAt(%#x) reported slot %d, which holds tag word %#x, not %#x", step, a, slot, c.tags[slot], found.key)
				}
			}
			if hits == 0 || evictions == 0 {
				t.Errorf("drive did not reach every path: %d hits, %d evictions", hits, evictions)
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
		if err := restore(New(c.Config()), snapshot(c)); err != nil {
			t.Fatalf("snapshot holding the neighbours of %#x: %v", a, err)
		}
		c.FlushAll()
	}

	byteLines := New(Config{SizeBytes: 2, Ways: 2, LineBytes: 1, Policy: WriteBack})
	byteLines.Access(top-1, Read, 0)
	if !byteLines.Find(top-1).Hit() || byteLines.Find(top-2).Hit() || byteLines.ValidLines() != 1 {
		t.Error("the last representable line number did not round-trip")
	}
	b := snapshot(byteLines)
	at, end := columns(t, b)
	forged := append(wire.AppendUvarint(append([]byte(nil), b[:at]...), top), b[end:]...) // the one line number a tag word cannot hold
	if err := restore(New(byteLines.Config()), forged); err == nil || !strings.Contains(err.Error(), "which a tag word cannot") {
		t.Errorf("a snapshot holding the all-ones line number: %v, want it refused", err)
	}
}
