package cache

import "fmt"

// This file exports the mutable state of the package's structures for the
// checkpoint subsystem (internal/checkpoint). Every type here is a plain
// exported mirror of the corresponding unexported runtime state, safe to
// serialize with encoding/gob and complete enough that RestoreState produces
// a structure whose future behaviour is byte-identical to the original's.

// LineState mirrors one cache line for serialization.
type LineState struct {
	Valid       bool
	Dirty       bool
	Tag         uint64
	LastUse     uint64
	Sharers     uint64
	LastCluster int
}

// State is a complete snapshot of a Cache: its resident lines (row-major,
// nsets*ways), the LRU clock, and the access statistics.
type State struct {
	Lines []LineState
	Clock uint64
	Stats Stats
}

// SaveState captures the cache's mutable state.
func (c *Cache) SaveState() State {
	st := State{
		Lines: make([]LineState, 0, c.nsets*c.cfg.Ways),
		Clock: c.clock,
		Stats: c.stats,
	}
	for s := range c.sets {
		for w := range c.sets[s] {
			l := c.sets[s][w]
			st.Lines = append(st.Lines, LineState{
				Valid:       l.valid,
				Dirty:       l.dirty,
				Tag:         l.tag,
				LastUse:     l.lastUse,
				Sharers:     l.sharers,
				LastCluster: l.lastCluster,
			})
		}
	}
	return st
}

// RestoreState overwrites the cache's mutable state with a snapshot taken
// from a cache of the same geometry.
func (c *Cache) RestoreState(st State) error {
	if want := c.nsets * c.cfg.Ways; len(st.Lines) != want {
		return fmt.Errorf("cache: snapshot has %d lines, cache holds %d", len(st.Lines), want)
	}
	clear(c.touched)
	for i, l := range st.Lines {
		c.lines[i] = line{
			valid:       l.Valid,
			dirty:       l.Dirty,
			tag:         l.Tag,
			lastUse:     l.LastUse,
			sharers:     l.Sharers,
			lastCluster: l.LastCluster,
		}
		if l.Sharers != 0 {
			c.touch(i) // the touched set is derived from the sharer sets
		}
	}
	c.clock = st.Clock
	c.stats = st.Stats
	return nil
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
	st := MSHRState[P]{
		Lines:         append([]uint64(nil), m.lines...),
		Payloads:      make([][]P, len(m.payloads)),
		PeakOccupancy: m.peakOccupancy,
		Allocations:   m.allocations,
		Merges:        m.merges,
		FullStalls:    m.fullStalls,
	}
	for i, ps := range m.payloads {
		st.Payloads[i] = append([]P(nil), ps...)
	}
	return st
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
	st := ATDState{
		Entries:     make([]ATDEntryState, 0, a.sampledSets*a.ways),
		Clock:       a.clock,
		Accesses:    a.accesses,
		SharedHits:  a.sharedHits,
		PrivateHits: a.privateHits,
	}
	for s := range a.sets {
		for w := range a.sets[s] {
			e := a.sets[s][w]
			st.Entries = append(st.Entries, ATDEntryState{
				Valid:       e.valid,
				Tag:         e.tag,
				LastUse:     e.lastUse,
				LastCluster: e.lastCluster,
			})
		}
	}
	return st
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
