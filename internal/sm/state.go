package sm

import (
	"fmt"

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
// load), Pending the retried operations of the warps that have one, in slot
// order. The L1 MSHR entries' merge lists hold the slots of the asleep
// warps, each in exactly one list: an asleep warp's line is its entry's
// line. What a warp does not read — the operation of a warp with nothing
// pending — is not state.
type State struct {
	Wake       []uint64
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
	st.Pending = st.Pending[:0]
	for i := range s.warps {
		w := &s.warps[i]
		if w.hasPending {
			st.Pending = append(st.Pending, PendingOp{Warp: i, Op: w.pending})
		}
	}
	st.Current = append(st.Current[:0], s.current...)
	s.l1.SaveStateInto(&st.L1)
	cache.SaveMSHRs(&s.mshrs, &st.MSHRs, func(w uint64) uint64 { return w })
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
	if len(st.Wake) != len(s.warps) {
		return fmt.Errorf("sm %d: snapshot has %d warps, SM has %d", s.id, len(st.Wake), len(s.warps))
	}
	if len(st.Current) != len(s.current) {
		return fmt.Errorf("sm %d: snapshot has %d schedulers, SM has %d", s.id, len(st.Current), len(s.current))
	}
	if err := s.checkMergeLists(st); err != nil {
		return err
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
	clear(s.warps)
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

// checkMergeLists holds st to what CompleteLoad relies on: the L1 MSHR
// merge lists name warp slots, every listed warp is asleep, and every asleep
// warp is in exactly one list.
func (s *SM) checkMergeLists(st State) error {
	listed := make([]uint64, s.words)
	for i, ws := range st.MSHRs.Payloads {
		for _, w := range ws {
			switch {
			case w >= uint64(len(s.warps)):
				return fmt.Errorf("sm %d: snapshot's MSHR entry %d lists warp %d of %d", s.id, i, w, len(s.warps))
			case st.Wake[w] != asleep:
				return fmt.Errorf("sm %d: snapshot's MSHR entry %d lists warp %d, which is not asleep", s.id, i, w)
			case listed[w>>6]>>(w&63)&1 != 0:
				return fmt.Errorf("sm %d: snapshot lists warp %d twice in its MSHR entries", s.id, w)
			}
			listed[w>>6] |= 1 << (w & 63)
		}
	}
	for w, at := range st.Wake {
		if at == asleep && listed[w>>6]>>(w&63)&1 == 0 {
			return fmt.Errorf("sm %d: snapshot's warp %d is asleep in no MSHR entry", s.id, w)
		}
	}
	return nil
}

// AppendTo appends the state's wire form: the scalars, scheduler positions,
// L1, MSHRs (whose merge lists are warp slots) and out queue, then the warp
// columns — a bit per warp for asleep, the wake times of the others relative
// to the SM's cycle (a few cycles either way, where the absolute time grows
// with the run) and the pending operations.
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
	b = st.MSHRs.AppendTo(b, func(w *uint64, b []byte) []byte { return wire.AppendUvarint(b, *w) })
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
	st.MSHRs.ReadFrom(r, 1, func(w *uint64, r *wire.Reader) { *w = r.Uvarint() })
	st.OutQ = mem.ReadRequests(r, st.OutQ)

	n := r.Count(1)
	sleeping := r.Bits(nil, n)
	st.Wake = wire.Resize(st.Wake, n)
	for i := range st.Wake {
		if len(sleeping) > i>>6 && sleeping[i>>6]>>(i&63)&1 != 0 {
			st.Wake[i] = asleep
		} else {
			st.Wake[i] = st.Cycle + uint64(r.Varint())
		}
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
