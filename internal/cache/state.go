package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/wire"
)

// This file exports the mutable state of the package's structures for the
// checkpoint subsystem (internal/checkpoint). Every State type here is a
// plain exported value, complete enough that RestoreState produces a
// structure whose future behaviour is byte-identical to the original's, with
// a hand-written wire form (AppendTo / ReadFrom over internal/wire) that is
// the bytes a checkpoint store holds.

// State is a complete snapshot of a Cache: the LRU clock, the access
// statistics and the resident lines as packed columns. Valid has a bit per
// line slot (set-major, set*ways + way, Slots of them); every other column
// has one entry per valid slot, in slot order — Dirty a bit, the rest a
// word. Invalid slots carry no state — the cache keeps them zeroed — so a
// snapshot costs what the cache holds, not what it could hold.
type State struct {
	Slots       int
	Valid       []uint64
	Dirty       []uint64
	Tags        []uint64
	LastUse     []uint64
	Sharers     []uint64
	LastCluster []int
	Clock       uint64
	Stats       Stats
}

// SaveState captures the cache's mutable state.
func (c *Cache) SaveState() State {
	var st State
	c.SaveStateInto(&st)
	return st
}

// SaveStateInto is SaveState reusing the backing arrays st already has. It
// marks the valid slots first, so the columns are sized once and the second
// pass visits resident lines only.
func (c *Cache) SaveStateInto(st *State) {
	st.Slots = len(c.tags)
	st.Valid = wire.Resize(st.Valid, wire.BitWords(len(c.tags)))
	clear(st.Valid)
	n := 0
	for i, word := range c.tags {
		if word != 0 {
			st.Valid[i>>6] |= 1 << (i & 63)
			n++
		}
	}
	st.Dirty = wire.Resize(st.Dirty, wire.BitWords(n))
	clear(st.Dirty)
	st.Tags = wire.Resize(st.Tags, n)
	st.LastUse = wire.Resize(st.LastUse, n)
	st.Sharers = wire.Resize(st.Sharers, n)
	st.LastCluster = wire.Resize(st.LastCluster, n)
	k := 0
	for w, word := range st.Valid {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			m := &c.meta[i]
			if m.dirty {
				st.Dirty[k>>6] |= 1 << (k & 63)
			}
			st.Tags[k] = c.tags[i] - 1
			st.LastUse[k] = m.lastUse
			st.Sharers[k] = m.sharers
			st.LastCluster[k] = int(m.lastCluster)
			k++
		}
	}
	st.Clock = c.clock
	st.Stats = c.stats
}

// RestoreState overwrites the cache's mutable state with a snapshot taken
// from a cache of the same geometry.
func (c *Cache) RestoreState(st State) error {
	if st.Slots != len(c.tags) {
		return fmt.Errorf("cache: snapshot has %d lines, cache holds %d", st.Slots, len(c.tags))
	}
	words := wire.BitWords(st.Slots)
	if len(st.Valid) != words {
		return fmt.Errorf("cache: snapshot valid set holds %d words, %d lines take %d", len(st.Valid), st.Slots, words)
	}
	if st.Slots%64 != 0 && st.Valid[words-1]>>(st.Slots%64) != 0 {
		return fmt.Errorf("cache: snapshot marks lines valid beyond the %d it holds", st.Slots)
	}
	valid := 0
	for _, word := range st.Valid {
		valid += bits.OnesCount64(word)
	}
	if len(st.Dirty) != wire.BitWords(valid) || len(st.Tags) != valid || len(st.LastUse) != valid ||
		len(st.Sharers) != valid || len(st.LastCluster) != valid {
		return fmt.Errorf("cache: snapshot columns do not match its %d valid lines", valid)
	}
	if slices.Contains(st.Tags, ^uint64(0)) {
		return fmt.Errorf("cache: snapshot holds line number %#x, which a tag word cannot", ^uint64(0))
	}
	clear(c.tags)
	clear(c.meta)
	clear(c.touched)
	k := 0
	for w, word := range st.Valid {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			c.tags[i] = st.Tags[k] + 1
			c.meta[i] = lineMeta{
				lastUse:     st.LastUse[k],
				sharers:     st.Sharers[k],
				lastCluster: int32(st.LastCluster[k]),
				dirty:       st.Dirty[k>>6]>>(k&63)&1 != 0,
			}
			if st.Sharers[k] != 0 {
				c.touch(i) // the touched set is derived from the sharer sets
			}
			k++
		}
	}
	c.clock = st.Clock
	c.stats = st.Stats
	return nil
}

// AppendTo appends the state's wire form: slot count, the valid set, the
// clock, then per valid line the dirty bit, the tag and the LRU age (Clock -
// LastUse, small where LastUse is not) as columns, the Sharers / LastCluster
// columns behind a presence flag — a cache accessed without cluster identity
// (every L1) leaves both all zero and omits them — and the statistics.
func (st *State) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(st.Slots))
	b = wire.AppendBits(b, st.Valid, st.Slots)
	b = wire.AppendUvarint(b, st.Clock)
	b = wire.AppendBits(b, st.Dirty, len(st.Tags))
	b = wire.AppendUvarints(b, st.Tags)
	for _, u := range st.LastUse {
		b = wire.AppendUvarint(b, st.Clock-u)
	}
	clusters := false
	for i := range st.Sharers {
		if st.Sharers[i] != 0 || st.LastCluster[i] != 0 {
			clusters = true
			break
		}
	}
	b = wire.AppendBool(b, clusters)
	if clusters {
		b = wire.AppendUvarints(b, st.Sharers)
		b = wire.AppendInts(b, st.LastCluster)
	}
	for _, p := range st.Stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	return b
}

// ReadFrom overwrites the state with the next one in r, reusing the backing
// arrays it already has.
func (st *State) ReadFrom(r *wire.Reader) {
	st.Slots = r.BitCount()
	st.Valid = r.Bits(st.Valid, st.Slots)
	st.Clock = r.Uvarint()
	n := 0
	for _, w := range st.Valid {
		n += bits.OnesCount64(w)
	}
	if !r.Need(n, 2) {
		n = 0
	}
	st.Dirty = r.Bits(st.Dirty, n)
	st.Tags = r.Uvarints(st.Tags, n)
	st.LastUse = r.Uvarints(st.LastUse, n)
	for i, age := range st.LastUse {
		st.LastUse[i] = st.Clock - age
	}
	st.Sharers = wire.Resize(st.Sharers, n)
	st.LastCluster = wire.Resize(st.LastCluster, n)
	if r.Bool() {
		if !r.Need(n, 2) {
			n = 0
		}
		st.Sharers = r.Uvarints(st.Sharers, n)
		st.LastCluster = r.Ints(st.LastCluster, n)
	} else {
		clear(st.Sharers)
		clear(st.LastCluster)
	}
	for _, p := range st.Stats.counters() {
		*p = r.Uvarint()
	}
}

// counters lists the statistics in wire order.
func (s *Stats) counters() [9]*uint64 {
	return [...]*uint64{&s.Accesses, &s.Hits, &s.Misses, &s.Reads, &s.Writes,
		&s.ReadMisses, &s.WriteMisses, &s.Evictions, &s.Writebacks}
}

// MSHRState is a complete snapshot of an MSHRTable, generic over the same
// payload type. Lines and Payloads are parallel arrays in packed order (the
// order is semantically irrelevant but preserved for exactness).
type MSHRState[P any] struct {
	Lines         []uint64
	Payloads      [][]P
	PeakOccupancy int
	Allocations   uint64
	Merges        uint64
	FullStalls    uint64
}

// SaveState captures the table's entries and statistics. Payload slices are
// deep-copied: the table recycles its backing arrays.
func (m *MSHRTable[P]) SaveState() MSHRState[P] {
	var st MSHRState[P]
	SaveMSHRs(m, &st, func(p P) P { return p })
	return st
}

// SaveMSHRs captures m into st, reusing the backing arrays st already has
// and storing each payload as conv gives it: the LLC's tables hold
// *mem.Request and snapshot the requests by value.
func SaveMSHRs[P, S any](m *MSHRTable[P], st *MSHRState[S], conv func(P) S) {
	st.Lines = append(st.Lines[:0], m.lines...)
	st.Payloads = wire.Resize(st.Payloads, len(m.payloads))
	for i, ps := range m.payloads {
		out := st.Payloads[i][:0]
		for _, p := range ps {
			out = append(out, conv(p))
		}
		st.Payloads[i] = out
	}
	st.PeakOccupancy = m.peakOccupancy
	st.Allocations = m.allocations
	st.Merges = m.merges
	st.FullStalls = m.fullStalls
}

// AppendTo appends the state's wire form — per entry its line and its
// counted payloads, each written by elem — then the counters. Lines and
// Payloads must be parallel, as SaveState and ReadFrom leave them.
func (st *MSHRState[P]) AppendTo(b []byte, elem func(*P, []byte) []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(st.Lines)))
	for i, line := range st.Lines {
		b = wire.AppendUvarint(b, line)
		b = wire.AppendUvarint(b, uint64(len(st.Payloads[i])))
		for j := range st.Payloads[i] {
			b = elem(&st.Payloads[i][j], b)
		}
	}
	b = wire.AppendInt(b, st.PeakOccupancy)
	b = wire.AppendUvarint(b, st.Allocations)
	b = wire.AppendUvarint(b, st.Merges)
	return wire.AppendUvarint(b, st.FullStalls)
}

// ReadFrom overwrites the state with the next one in r, reusing the backing
// arrays it already has; elem reads one payload of at least elemMin bytes.
func (st *MSHRState[P]) ReadFrom(r *wire.Reader, elemMin int, elem func(*P, *wire.Reader)) {
	n := r.Count(2)
	st.Lines = wire.Resize(st.Lines, n)
	st.Payloads = wire.Resize(st.Payloads, n)
	for i := range st.Lines {
		st.Lines[i] = r.Uvarint()
		ps := wire.Resize(st.Payloads[i], r.Count(elemMin))
		for j := range ps {
			elem(&ps[j], r)
		}
		st.Payloads[i] = ps
	}
	st.PeakOccupancy = r.Int()
	st.Allocations = r.Uvarint()
	st.Merges = r.Uvarint()
	st.FullStalls = r.Uvarint()
}

// RestoreState overwrites the table's entries and statistics. The counters
// are written directly — going through Allocate would double-count them.
func (m *MSHRTable[P]) RestoreState(st MSHRState[P]) error {
	if len(st.Lines) != len(st.Payloads) {
		return fmt.Errorf("cache: MSHR snapshot has %d lines but %d payload sets", len(st.Lines), len(st.Payloads))
	}
	if len(st.Lines) > m.capacity {
		return fmt.Errorf("cache: MSHR snapshot holds %d entries, table capacity is %d", len(st.Lines), m.capacity)
	}
	m.Reset()
	// A snapshot holding a list deeper than this table's slices makes the
	// move Commit would have made: lists grown to exact size here would
	// re-grow on every later merge, and a restored table would keep
	// allocating long after a cold one went quiet.
	for _, ps := range st.Payloads {
		if m.outgrown(len(ps)) {
			m.deepen()
			break
		}
	}
	m.lines = append(m.lines, st.Lines...)
	for _, ps := range st.Payloads {
		m.payloads = append(m.payloads, append(m.takePayload(), ps...))
	}
	// Reset already bumped the stamp, invalidating outstanding Probes; no
	// Probe is ever held across a checkpoint boundary.
	m.peakOccupancy = st.PeakOccupancy
	m.allocations = st.Allocations
	m.merges = st.Merges
	m.fullStalls = st.FullStalls
	return nil
}

// ATDEntryState mirrors one ATD entry for serialization.
type ATDEntryState struct {
	Valid       bool
	Tag         uint64
	LastUse     uint64
	LastCluster int
}

// ATDState is a complete snapshot of an ATD (row-major, sampledSets*ways).
type ATDState struct {
	Entries     []ATDEntryState
	Clock       uint64
	Accesses    uint64
	SharedHits  uint64
	PrivateHits uint64
}

// SaveState captures the ATD's sampled sets and counters.
func (a *ATD) SaveState() ATDState {
	var st ATDState
	a.SaveStateInto(&st)
	return st
}

// SaveStateInto is SaveState reusing the backing array st already has.
func (a *ATD) SaveStateInto(st *ATDState) {
	st.Entries = st.Entries[:0]
	for s := range a.sets {
		for _, e := range a.sets[s] {
			st.Entries = append(st.Entries, ATDEntryState{
				Valid:       e.valid,
				Tag:         e.tag,
				LastUse:     e.lastUse,
				LastCluster: e.lastCluster,
			})
		}
	}
	st.Clock = a.clock
	st.Accesses = a.accesses
	st.SharedHits = a.sharedHits
	st.PrivateHits = a.privateHits
}

// AppendTo appends the state's wire form: the counted entries, then the
// clock and counters.
func (st *ATDState) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(st.Entries)))
	for _, e := range st.Entries {
		b = wire.AppendBool(b, e.Valid)
		b = wire.AppendUvarint(b, e.Tag)
		b = wire.AppendUvarint(b, e.LastUse)
		b = wire.AppendInt(b, e.LastCluster)
	}
	b = wire.AppendUvarint(b, st.Clock)
	b = wire.AppendUvarint(b, st.Accesses)
	b = wire.AppendUvarint(b, st.SharedHits)
	return wire.AppendUvarint(b, st.PrivateHits)
}

// ReadFrom overwrites the state with the next one in r, reusing the backing
// array it already has.
func (st *ATDState) ReadFrom(r *wire.Reader) {
	st.Entries = wire.Resize(st.Entries, r.Count(4))
	for i := range st.Entries {
		e := &st.Entries[i]
		e.Valid = r.Bool()
		e.Tag = r.Uvarint()
		e.LastUse = r.Uvarint()
		e.LastCluster = r.Int()
	}
	st.Clock = r.Uvarint()
	st.Accesses = r.Uvarint()
	st.SharedHits = r.Uvarint()
	st.PrivateHits = r.Uvarint()
}

// RestoreState overwrites the ATD's state with a snapshot taken from an ATD
// of the same geometry.
func (a *ATD) RestoreState(st ATDState) error {
	if want := a.sampledSets * a.ways; len(st.Entries) != want {
		return fmt.Errorf("cache: ATD snapshot has %d entries, directory holds %d", len(st.Entries), want)
	}
	i := 0
	for s := range a.sets {
		for w := range a.sets[s] {
			e := st.Entries[i]
			i++
			a.sets[s][w] = atdEntry{
				valid:       e.Valid,
				tag:         e.Tag,
				lastUse:     e.LastUse,
				lastCluster: e.LastCluster,
			}
		}
	}
	a.clock = st.Clock
	a.accesses = st.Accesses
	a.sharedHits = st.SharedHits
	a.privateHits = st.PrivateHits
	return nil
}
