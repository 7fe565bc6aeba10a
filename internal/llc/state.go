package llc

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
)

// PendingReplyState mirrors one latency-pending reply for serialization.
type PendingReplyState struct {
	Reply   mem.Reply
	ReadyAt uint64
}

// SliceState is a complete snapshot of a Slice: the tag store (including its
// write policy, which reconfiguration changes at runtime), the MSHR table
// with its merged requests, and all three queues. Requests are stored by
// value; the ownership invariant makes reallocation on restore equivalent.
type SliceState struct {
	Policy   cache.WritePolicy
	Tags     cache.State
	MSHRs    cache.MSHRState[mem.Request]
	InQ      []mem.Request
	DRAMOut  []DRAMRequest
	ReplyOut []PendingReplyState
	Cycle    uint64
	Stats    Stats
}

// SaveState captures the slice's mutable state.
func (s *Slice) SaveState() SliceState {
	mshrs := s.mshrs.SaveState()
	flat := cache.MSHRState[mem.Request]{
		Lines:         mshrs.Lines,
		Payloads:      make([][]mem.Request, len(mshrs.Payloads)),
		PeakOccupancy: mshrs.PeakOccupancy,
		Allocations:   mshrs.Allocations,
		Merges:        mshrs.Merges,
		FullStalls:    mshrs.FullStalls,
	}
	for i, ps := range mshrs.Payloads {
		flat.Payloads[i] = make([]mem.Request, len(ps))
		for j, r := range ps {
			flat.Payloads[i][j] = *r
		}
	}
	st := SliceState{
		Policy:  s.tags.Config().Policy,
		Tags:    s.tags.SaveState(),
		MSHRs:   flat,
		InQ:     make([]mem.Request, 0, s.inq.Len()),
		DRAMOut: make([]DRAMRequest, 0, s.dramOut.Len()),
		Cycle:   s.cycle,
		Stats:   s.stats,
	}
	for i := 0; i < s.inq.Len(); i++ {
		st.InQ = append(st.InQ, *s.inq.At(i))
	}
	for i := 0; i < s.dramOut.Len(); i++ {
		st.DRAMOut = append(st.DRAMOut, s.dramOut.At(i))
	}
	for i := 0; i < s.replyOut.Len(); i++ {
		pr := s.replyOut.At(i)
		st.ReplyOut = append(st.ReplyOut, PendingReplyState{Reply: pr.reply, ReadyAt: pr.readyAt})
	}
	return st
}

// RestoreState overwrites the slice's mutable state with a snapshot taken
// from a slice built under the same configuration. The tag store is rebuilt
// with the snapshot's write policy (SetWritePolicy's flushed-slice guard
// does not apply to a wholesale state overwrite).
func (s *Slice) RestoreState(st SliceState) error {
	tagCfg := s.tags.Config()
	tagCfg.Policy = st.Policy
	tags := cache.New(tagCfg)
	if err := tags.RestoreState(st.Tags); err != nil {
		return fmt.Errorf("llc slice %d: %w", s.id, err)
	}
	s.tags = tags

	ptr := cache.MSHRState[*mem.Request]{
		Lines:         st.MSHRs.Lines,
		Payloads:      make([][]*mem.Request, len(st.MSHRs.Payloads)),
		PeakOccupancy: st.MSHRs.PeakOccupancy,
		Allocations:   st.MSHRs.Allocations,
		Merges:        st.MSHRs.Merges,
		FullStalls:    st.MSHRs.FullStalls,
	}
	for i, ps := range st.MSHRs.Payloads {
		ptr.Payloads[i] = make([]*mem.Request, len(ps))
		for j := range ps {
			r := s.pool.Get()
			*r = ps[j]
			ptr.Payloads[i][j] = r
		}
	}
	if err := s.mshrs.RestoreState(ptr); err != nil {
		return fmt.Errorf("llc slice %d: %w", s.id, err)
	}

	s.inq.Clear()
	for i := range st.InQ {
		r := s.pool.Get()
		*r = st.InQ[i]
		s.inq.PushBack(r)
	}
	s.dramOut.Clear()
	for _, d := range st.DRAMOut {
		s.dramOut.PushBack(d)
	}
	s.replyOut.Clear()
	for _, pr := range st.ReplyOut {
		s.replyOut.PushBack(pendingReply{reply: pr.Reply, readyAt: pr.ReadyAt})
	}
	s.cycle = st.Cycle
	s.stats = st.Stats
	s.parked = false // derived: the next Tick asks again
	return nil
}
