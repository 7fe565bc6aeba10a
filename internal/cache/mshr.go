package cache

// MSHRTable models a set of miss-status holding registers. Multiple misses
// to the same cache line merge into one outstanding entry; the table is
// full when the number of distinct outstanding lines reaches its capacity,
// at which point the cache must stall new misses.
//
// The table is generic over the per-miss payload P it remembers for each
// merged requester: the L1s track the slots of the warps asleep on the line
// (uint64), which a fill wakes, the LLC slices track the merged *mem.Request
// values they must answer when it returns, so one structure serves both
// without a shadow table.
//
// It is backed by packed arrays rather than a map: MSHR capacities are
// small (tens of entries), so a linear scan over a contiguous line-address
// array is both faster than hashing and allocation-free, which matters on
// the simulator's per-cycle hot path. Per-entry payload slices are recycled
// through an internal free list, so a warmed-up table performs zero
// allocations.
type MSHRTable[P any] struct {
	capacity     int
	maxMergedPer int

	// Packed parallel arrays of the occupied entries. Entry order is
	// insertion-order-with-swap-remove and carries no semantic meaning; all
	// lookups are by line address.
	lines    []uint64
	payloads [][]P

	// freePayloads recycles the per-entry payload backing slices; fresh
	// ones are made payloadChunk at a time with room for payloadCap payloads
	// each: 8, or mergeBound once a merge list has outgrown that (see deepen).
	freePayloads [][]P
	payloadCap   int
	mergeBound   int

	// stamp counts structural changes (entry insert/remove/reset); a Probe
	// taken before such a change cannot be Commit-ed after it.
	stamp uint64
}

// NewMSHRTable creates a table with the given number of entries. Each entry
// can merge up to maxMergedPer requests (0 means unlimited merging).
func NewMSHRTable[P any](capacity, maxMergedPer int) *MSHRTable[P] {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHRTable[P]{
		capacity:     capacity,
		maxMergedPer: maxMergedPer,
		lines:        make([]uint64, 0, capacity),
		payloads:     make([][]P, 0, capacity),
		freePayloads: make([][]P, 0, capacity),
		payloadCap:   8,
	}
}

// payloadChunk is how many entries' payload slices one allocation backs.
const payloadChunk = 4

// ExpectMerges tells the table that at most n requesters ever merge on one
// line (an L1 merges at most one load per warp), which lets it size merge
// lists once instead of doubling them (see deepen).
func (m *MSHRTable[P]) ExpectMerges(n int) { m.mergeBound = n }

// outgrown reports whether a merge list of n payloads no longer fits the
// table's slices but does fit the bound its owner gave.
func (m *MSHRTable[P]) outgrown(n int) bool { return n > m.payloadCap && n <= m.mergeBound }

// deepen moves every occupied entry, and a chunk of spares, to slices
// mergeBound deep in one allocation, and makes fresh slices that deep from
// now on. Lists that double one by one keep allocating until every recycled
// slice has met its deepest merge — tens of thousands of cycles on a lockstep
// workload, where all warps of an SM wait on the same few lines. The first
// list to outgrow its slice shows the workload merges deeply; one that never
// does keeps the small slices.
func (m *MSHRTable[P]) deepen() {
	c := m.mergeBound
	block := make([]P, min(len(m.payloads)+payloadChunk, m.capacity)*c)
	for i, ps := range m.payloads {
		m.payloads[i] = append(block[:0:c], ps...)
		block = block[c:]
	}
	clear(m.freePayloads)
	m.freePayloads = m.freePayloads[:0]
	m.stock(block, c)
	m.payloadCap = c
}

// stock cuts block into empty slices of capacity c for the free list.
func (m *MSHRTable[P]) stock(block []P, c int) {
	for ; len(block) > 0; block = block[c:] {
		m.freePayloads = append(m.freePayloads, block[:0:c])
	}
}

// Stamp returns the structural-change counter. It moves on every entry
// insert, Complete of an outstanding line and Reset, and on nothing else:
// while it holds still, the set of outstanding lines — and with it the
// answer "the table is full and this line is not in it" — cannot change.
func (m *MSHRTable[P]) Stamp() uint64 { return m.stamp }

// find returns the packed index of lineAddr, or -1.
func (m *MSHRTable[P]) find(lineAddr uint64) int {
	for i, l := range m.lines {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// ProbeKind classifies the outcome of a single MSHR lookup.
type ProbeKind uint8

const (
	// ProbeNew: the line has no outstanding miss and a free entry exists; a
	// miss can allocate a new (primary) entry.
	ProbeNew ProbeKind = iota
	// ProbeMerge: the line has an outstanding miss with merge room; a miss
	// merges into it as a secondary.
	ProbeMerge
	// ProbeMergeLimit: the line has an outstanding miss whose merge limit is
	// reached; the access must stall.
	ProbeMergeLimit
	// ProbeTableFull: the line has no outstanding miss and the table is
	// full; a miss would stall (a cache hit can still proceed).
	ProbeTableFull
)

// Probe is the cached result of one MSHRTable lookup. It answers the
// questions a memory pipeline asks about a line (Outstanding? CanAccept?)
// and, if the access turns out to be a miss, finishes the allocation via
// Commit — all from the single scan performed by MSHRTable.Probe. A Probe is
// invalidated by any structural table change (Commit of a new entry,
// Complete, Reset); committing a stale Probe panics.
type Probe struct {
	lineAddr uint64
	idx      int
	kind     ProbeKind
	stamp    uint64
}

// Outstanding reports whether the probed line already has an entry.
func (p Probe) Outstanding() bool { return p.kind == ProbeMerge || p.kind == ProbeMergeLimit }

// CanAccept reports whether a miss on the probed line can be accepted, by
// merging into its entry or by allocating a new one.
func (p Probe) CanAccept() bool { return p.kind == ProbeNew || p.kind == ProbeMerge }

// Probe is the combined probe-and-allocate entry point: it performs the one
// linear scan for lineAddr and returns a Probe that answers the
// Outstanding/CanAccept questions and can be handed to Commit to finish a
// miss allocation.
func (m *MSHRTable[P]) Probe(lineAddr uint64) Probe {
	p := Probe{lineAddr: lineAddr, idx: -1, stamp: m.stamp}
	if i := m.find(lineAddr); i >= 0 {
		p.idx = i
		if m.maxMergedPer != 0 && len(m.payloads[i]) >= m.maxMergedPer {
			p.kind = ProbeMergeLimit
		} else {
			p.kind = ProbeMerge
		}
		return p
	}
	if len(m.lines) >= m.capacity {
		p.kind = ProbeTableFull
	} else {
		p.kind = ProbeNew
	}
	return p
}

// Commit finishes the miss allocation a Probe approved, without re-scanning
// the table: a ProbeMerge appends payload to the existing entry and returns
// primary=false; a ProbeNew inserts a fresh entry and returns primary=true
// (the caller must send the fill request to the next level). Committing a
// stalled or stale Probe is a caller bug and panics.
func (m *MSHRTable[P]) Commit(p Probe, payload P) (primary bool) {
	if p.stamp != m.stamp {
		panic("cache: MSHR Commit with a stale Probe (table changed since the lookup)")
	}
	switch p.kind {
	case ProbeMerge:
		if m.lines[p.idx] != p.lineAddr {
			panic("cache: MSHR Probe index no longer matches its line")
		}
		if m.outgrown(len(m.payloads[p.idx]) + 1) {
			m.deepen()
		}
		m.payloads[p.idx] = append(m.payloads[p.idx], payload)
		return false
	case ProbeNew:
		m.insert(p.lineAddr, payload)
		return true
	default:
		panic("cache: MSHR Commit on a stalled Probe")
	}
}

// Allocate records a miss for payload on lineAddr. It returns primary=true
// if this is the first outstanding miss for the line (and therefore a
// request must be sent to the next level), or primary=false if it merged
// into an existing entry. ok=false means the table is full and the miss must
// stall. Hot paths that already need Outstanding/CanAccept answers should
// use Probe/Commit instead and pay for one scan total.
func (m *MSHRTable[P]) Allocate(lineAddr uint64, payload P) (primary, ok bool) {
	p := m.Probe(lineAddr)
	if !p.CanAccept() {
		return false, false
	}
	return m.Commit(p, payload), true
}

// takePayload pops an empty payload slice off the free list, backing a few
// more entries with one allocation when it has run dry.
func (m *MSHRTable[P]) takePayload() []P {
	if len(m.freePayloads) == 0 {
		n := min(payloadChunk, m.capacity-len(m.payloads))
		m.stock(make([]P, n*m.payloadCap), m.payloadCap)
	}
	n := len(m.freePayloads) - 1
	ps := m.freePayloads[n][:0]
	m.freePayloads[n] = nil
	m.freePayloads = m.freePayloads[:n]
	return ps
}

// insert adds a new entry for lineAddr on a recycled payload slice.
func (m *MSHRTable[P]) insert(lineAddr uint64, payload P) {
	m.lines = append(m.lines, lineAddr)
	m.payloads = append(m.payloads, append(m.takePayload(), payload))
	m.stamp++
}

// Complete removes the entry for lineAddr and returns the merged payloads
// waiting on it (in arrival order). It returns nil if no entry exists.
//
// The returned slice's backing array is recycled by the table: it is valid
// only until the table next inserts an entry.
func (m *MSHRTable[P]) Complete(lineAddr uint64) []P {
	i := m.find(lineAddr)
	if i < 0 {
		return nil
	}
	reqs := m.payloads[i]
	last := len(m.lines) - 1
	m.lines[i] = m.lines[last]
	m.payloads[i] = m.payloads[last]
	m.lines = m.lines[:last]
	m.payloads[last] = nil
	m.payloads = m.payloads[:last]
	m.freePayloads = append(m.freePayloads, reqs)
	m.stamp++
	return reqs
}

// Occupancy returns the number of distinct outstanding lines.
func (m *MSHRTable[P]) Occupancy() int { return len(m.lines) }

// Capacity returns the number of entries the table can hold.
func (m *MSHRTable[P]) Capacity() int { return m.capacity }

// Reset clears all entries (recycled backing storage is kept).
func (m *MSHRTable[P]) Reset() {
	for i := range m.payloads {
		m.freePayloads = append(m.freePayloads, m.payloads[i][:0])
		m.payloads[i] = nil
	}
	m.lines = m.lines[:0]
	m.payloads = m.payloads[:0]
	m.stamp++
}
