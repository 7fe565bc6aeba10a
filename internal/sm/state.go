package sm

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/wire"
	"repro/internal/workload"
)

// PendingOp is an operation a warp could not issue (structural stall) and
// will retry.
type PendingOp struct {
	Warp int
	Op   workload.Op
}

// State is a complete snapshot of an SM: warp contexts, scheduler positions,
// the L1 tag store and MSHR table, the unsent request queue and counters.
// Pool contents are deliberately absent — the free list hands out zeroed
// objects, so an empty pool behaves identically to a recycled one.
//
// The warp contexts are packed columns with an entry per warp slot: Wake is
// the cycle from which the warp can issue (all ones while it waits for a
// load), Issued its instruction count. Blocked holds, for the asleep warps
// only and in slot order, the line each waits for; Pending the retried
// operations of the warps that have one, in slot order. What a warp does not
// read — the blocked line of an awake warp, the operation of a warp with
// nothing pending — is not state.
type State struct {
	Wake       []uint64
	Issued     []uint64
	Blocked    []uint64
	Pending    []PendingOp
	Current    []int
	L1         cache.State
	MSHRs      cache.MSHRState[uint64]
	OutQ       []mem.Request
	ReqCounter uint64
	Cycle      uint64
	Stats      Stats
	AppID      int
}

// SaveStateInto captures the SM's mutable state, reusing the backing arrays
// st already has.
func (s *SM) SaveStateInto(st *State) {
	st.Wake = append(st.Wake[:0], s.wake...)
	st.Issued = wire.Resize(st.Issued, len(s.warps))
	st.Blocked, st.Pending = st.Blocked[:0], st.Pending[:0]
	for i := range s.warps {
		w := &s.warps[i]
		st.Issued[i] = w.issued
		if s.wake[i] == asleep {
			st.Blocked = append(st.Blocked, w.blockedLine)
		}
		if w.hasPending {
			st.Pending = append(st.Pending, PendingOp{Warp: i, Op: w.pending})
		}
	}
	st.Current = append(st.Current[:0], s.current...)
	s.l1.SaveStateInto(&st.L1)
	cache.SaveMSHRs(&s.mshrs, &st.MSHRs, func(id uint64) uint64 { return id })
	st.OutQ = st.OutQ[:0]
	for i := 0; i < s.outQ.Len(); i++ {
		st.OutQ = append(st.OutQ, *s.outQ.At(i))
	}
	st.ReqCounter = s.reqCounter
	st.Cycle = s.cycle
	st.Stats = s.stats
	st.AppID = s.appID
}

// RestoreState overwrites the SM's mutable state with a snapshot taken from
// an SM built under the same configuration. Queued requests are reallocated;
// the ownership invariant (each request lives in exactly one container)
// makes the copies equivalent to the originals.
func (s *SM) RestoreState(st State) error {
	if len(st.Wake) != len(s.warps) || len(st.Issued) != len(s.warps) {
		return fmt.Errorf("sm %d: snapshot has %d warps, SM has %d", s.id, len(st.Wake), len(s.warps))
	}
	if len(st.Current) != len(s.current) {
		return fmt.Errorf("sm %d: snapshot has %d schedulers, SM has %d", s.id, len(st.Current), len(s.current))
	}
	sleepers := 0
	for _, at := range st.Wake {
		if at == asleep {
			sleepers++
		}
	}
	if len(st.Blocked) != sleepers {
		return fmt.Errorf("sm %d: snapshot has %d blocked lines for %d sleeping warps", s.id, len(st.Blocked), sleepers)
	}
	for _, p := range st.Pending {
		if p.Warp < 0 || p.Warp >= len(s.warps) {
			return fmt.Errorf("sm %d: snapshot has a pending operation for warp %d of %d", s.id, p.Warp, len(s.warps))
		}
	}
	if err := s.l1.RestoreState(st.L1); err != nil {
		return fmt.Errorf("sm %d: %w", s.id, err)
	}
	if err := s.mshrs.RestoreState(st.MSHRs); err != nil {
		return fmt.Errorf("sm %d: %w", s.id, err)
	}
	// Derived issue-stage state is rebuilt, not restored: stall memos start
	// empty, so the first retry after a restore takes the full path, the
	// ready set and the calendar are refiled from Wake and Cycle, the SM is
	// thawed, and every L1 slot counts as in flight until a lookup's MSHR
	// probe says otherwise.
	for i := range s.inflight {
		s.inflight[i] = ^uint64(0)
	}
	copy(s.wake, st.Wake)
	blocked := st.Blocked
	for i := range s.warps {
		s.warps[i] = warp{issued: st.Issued[i]}
		if st.Wake[i] == asleep {
			s.warps[i].blockedLine, blocked = blocked[0], blocked[1:]
		}
	}
	for _, p := range st.Pending {
		s.warps[p.Warp].pending, s.warps[p.Warp].hasPending = p.Op, true
	}
	copy(s.current, st.Current)
	s.outQ.Clear()
	for i := range st.OutQ {
		r := s.pool.Get()
		*r = st.OutQ[i]
		s.outQ.PushBack(r)
	}
	s.reqCounter = st.ReqCounter
	s.cycle = st.Cycle
	s.rebuild()
	s.frozen = false
	s.stats = st.Stats
	s.appID = st.AppID
	return nil
}

// AppendTo appends the state's wire form: the scalars, scheduler positions,
// L1, MSHRs and out queue, then the warp columns — a bit per warp for
// asleep, the wake times of the others relative to the SM's cycle (a few
// cycles either way, where the absolute time grows with the run), the issue
// counts, the blocked lines and the pending operations. A sleeping warp
// waits for one of the SM's outstanding lines, so a blocked line is written
// as its index in the MSHR table; a state where one is not (no SM produces
// it) writes the lines themselves behind a false flag.
func (st *State) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, st.Cycle)
	b = wire.AppendUvarint(b, st.ReqCounter)
	b = wire.AppendInt(b, st.AppID)
	for _, p := range st.Stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	b = wire.AppendUvarint(b, uint64(len(st.Current)))
	b = wire.AppendInts(b, st.Current)
	b = st.L1.AppendTo(b)
	b = st.MSHRs.AppendTo(b, func(id *uint64, b []byte) []byte { return wire.AppendUvarint(b, *id) })
	b = mem.AppendRequests(b, st.OutQ)

	b = wire.AppendUvarint(b, uint64(len(st.Wake)))
	sleeping := make([]uint64, wire.BitWords(len(st.Wake)))
	for i, at := range st.Wake {
		if at == asleep {
			sleeping[i>>6] |= 1 << (i & 63)
		}
	}
	b = wire.AppendBits(b, sleeping, len(st.Wake))
	for _, at := range st.Wake {
		if at != asleep {
			b = wire.AppendVarint(b, int64(at-st.Cycle))
		}
	}
	b = wire.AppendUvarints(b, st.Issued)
	byIndex := len(b)
	b = wire.AppendBool(b, true)
	for _, line := range st.Blocked {
		i := slices.Index(st.MSHRs.Lines, line)
		if i < 0 {
			b = wire.AppendUvarints(wire.AppendBool(b[:byIndex], false), st.Blocked)
			break
		}
		b = wire.AppendUvarint(b, uint64(i))
	}
	b = wire.AppendUvarint(b, uint64(len(st.Pending)))
	for i := range st.Pending {
		b = wire.AppendInt(b, st.Pending[i].Warp)
		b = st.Pending[i].Op.AppendTo(b)
	}
	return b
}

// ReadFrom overwrites the state with the next one in r, reusing the backing
// arrays it already has.
func (st *State) ReadFrom(r *wire.Reader) {
	st.Cycle = r.Uvarint()
	st.ReqCounter = r.Uvarint()
	st.AppID = r.Int()
	for _, p := range st.Stats.counters() {
		*p = r.Uvarint()
	}
	st.Current = r.Ints(st.Current, r.Count(1))
	st.L1.ReadFrom(r)
	st.MSHRs.ReadFrom(r, 1, func(id *uint64, r *wire.Reader) { *id = r.Uvarint() })
	st.OutQ = mem.ReadRequests(r, st.OutQ)

	n := r.Count(1)
	sleeping := r.Bits(nil, n)
	st.Wake = wire.Resize(st.Wake, n)
	sleepers := 0
	for i := range st.Wake {
		if len(sleeping) > i>>6 && sleeping[i>>6]>>(i&63)&1 != 0 {
			st.Wake[i] = asleep
			sleepers++
		} else {
			st.Wake[i] = st.Cycle + uint64(r.Varint())
		}
	}
	st.Issued = r.Uvarints(st.Issued, n)
	st.Blocked = wire.Resize(st.Blocked, sleepers) // at most n, which Count validated
	if r.Bool() {
		for i := range st.Blocked {
			k := r.Uvarint()
			if k >= uint64(len(st.MSHRs.Lines)) {
				r.Fail("sm: blocked line %d of %d outstanding", k, len(st.MSHRs.Lines))
				break
			}
			st.Blocked[i] = st.MSHRs.Lines[k]
		}
	} else {
		st.Blocked = r.Uvarints(st.Blocked, sleepers)
	}
	st.Pending = wire.Resize(st.Pending, r.Count(5))
	for i := range st.Pending {
		st.Pending[i].Warp = r.Int()
		st.Pending[i].Op.ReadFrom(r)
	}
}

// counters lists the statistics in wire order.
func (s *Stats) counters() [12]*uint64 {
	return [...]*uint64{&s.Cycles, &s.Instructions, &s.MemInstructions, &s.Loads, &s.Stores, &s.L1Hits, &s.L1Misses,
		&s.StallNoReadyWarp, &s.StallStructural, &s.RepliesReceived, &s.TotalLoadLatency, &s.LoadsCompleted}
}
