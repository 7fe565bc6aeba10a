package sm

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/workload"
)

// WarpState mirrors one warp context for serialization.
type WarpState struct {
	ReadyAt     uint64
	WaitingMem  bool
	BlockedLine uint64
	Pending     workload.Op
	HasPending  bool
	Issued      uint64
}

// State is a complete snapshot of an SM: warp contexts, scheduler positions,
// the L1 tag store and MSHR table, the unsent request queue and counters.
// Pool contents are deliberately absent — the free list hands out zeroed
// objects, so an empty pool behaves identically to a recycled one.
type State struct {
	Warps      []WarpState
	Current    []int
	L1         cache.State
	MSHRs      cache.MSHRState[uint64]
	OutQ       []mem.Request
	ReqCounter uint64
	Cycle      uint64
	Stats      Stats
	AppID      int
}

// SaveState captures the SM's mutable state.
func (s *SM) SaveState() State {
	st := State{
		Warps:      make([]WarpState, len(s.warps)),
		Current:    append([]int(nil), s.current...),
		L1:         s.l1.SaveState(),
		MSHRs:      s.mshrs.SaveState(),
		OutQ:       make([]mem.Request, 0, s.outQ.Len()),
		ReqCounter: s.reqCounter,
		Cycle:      s.cycle,
		Stats:      s.stats,
		AppID:      s.appID,
	}
	for i, w := range s.warps {
		st.Warps[i] = WarpState{
			WaitingMem:  s.wake[i] == asleep,
			BlockedLine: w.blockedLine,
			Pending:     w.pending,
			HasPending:  w.hasPending,
			Issued:      w.issued,
		}
		if s.wake[i] != asleep {
			st.Warps[i].ReadyAt = s.wake[i]
		}
	}
	for i := 0; i < s.outQ.Len(); i++ {
		st.OutQ = append(st.OutQ, *s.outQ.At(i))
	}
	return st
}

// RestoreState overwrites the SM's mutable state with a snapshot taken from
// an SM built under the same configuration. Queued requests are reallocated;
// the ownership invariant (each request lives in exactly one container)
// makes the copies equivalent to the originals.
func (s *SM) RestoreState(st State) error {
	if len(st.Warps) != len(s.warps) {
		return fmt.Errorf("sm %d: snapshot has %d warps, SM has %d", s.id, len(st.Warps), len(s.warps))
	}
	if len(st.Current) != len(s.current) {
		return fmt.Errorf("sm %d: snapshot has %d schedulers, SM has %d", s.id, len(st.Current), len(s.current))
	}
	if err := s.l1.RestoreState(st.L1); err != nil {
		return fmt.Errorf("sm %d: %w", s.id, err)
	}
	if err := s.mshrs.RestoreState(st.MSHRs); err != nil {
		return fmt.Errorf("sm %d: %w", s.id, err)
	}
	// Derived issue-stage state is rebuilt, not restored: stall memos start
	// empty and the earliest-wake bounds at zero, so the first retry and the
	// first pick after a restore take the full path and re-derive them.
	for i, w := range st.Warps {
		s.warps[i] = warp{
			blockedLine: w.BlockedLine,
			pending:     w.Pending,
			hasPending:  w.HasPending,
			issued:      w.Issued,
		}
		s.wake[i] = w.ReadyAt
		if w.WaitingMem {
			s.wake[i] = asleep
		}
	}
	clear(s.earliest)
	copy(s.current, st.Current)
	s.outQ.Clear()
	for i := range st.OutQ {
		r := s.pool.Get()
		*r = st.OutQ[i]
		s.outQ.PushBack(r)
	}
	s.reqCounter = st.ReqCounter
	s.cycle = st.Cycle
	s.stats = st.Stats
	s.appID = st.AppID
	return nil
}
