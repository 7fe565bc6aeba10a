package llc

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/wire"
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

// SaveStateInto captures the slice's mutable state, reusing the backing
// arrays st already has.
func (s *Slice) SaveStateInto(st *SliceState) {
	st.Policy = s.tags.Config().Policy
	s.tags.SaveStateInto(&st.Tags)
	cache.SaveMSHRs(s.mshrs, &st.MSHRs, func(r *mem.Request) mem.Request { return *r })
	st.InQ, st.DRAMOut, st.ReplyOut = st.InQ[:0], st.DRAMOut[:0], st.ReplyOut[:0]
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
	st.Cycle = s.cycle
	st.Stats = s.stats
}

// AppendTo appends the state's wire form: write policy, tag store, MSHRs,
// the three queues, the cycle and the statistics.
func (st *SliceState) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, int(st.Policy))
	b = st.Tags.AppendTo(b)
	b = st.MSHRs.AppendTo(b, (*mem.Request).AppendTo)
	b = mem.AppendRequests(b, st.InQ)
	b = wire.AppendUvarint(b, uint64(len(st.DRAMOut)))
	for _, d := range st.DRAMOut {
		b = wire.AppendUvarint(b, d.Addr)
		b = wire.AppendBool(b, d.Write)
		b = wire.AppendBool(b, d.Fill)
	}
	b = wire.AppendUvarint(b, uint64(len(st.ReplyOut)))
	for i := range st.ReplyOut {
		b = st.ReplyOut[i].Reply.AppendTo(b)
		b = wire.AppendUvarint(b, st.ReplyOut[i].ReadyAt)
	}
	b = wire.AppendUvarint(b, st.Cycle)
	for _, p := range st.Stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	return wire.AppendInt(b, st.Stats.PeakQueue)
}

// ReadFrom overwrites the state with the next one in r, reusing the backing
// arrays it already has.
func (st *SliceState) ReadFrom(r *wire.Reader) {
	st.Policy = cache.WritePolicy(r.Int())
	st.Tags.ReadFrom(r)
	st.MSHRs.ReadFrom(r, mem.RequestWireMin, (*mem.Request).ReadFrom)
	st.InQ = mem.ReadRequests(r, st.InQ)
	st.DRAMOut = wire.Resize(st.DRAMOut, r.Count(3))
	for i := range st.DRAMOut {
		st.DRAMOut[i] = DRAMRequest{Addr: r.Uvarint(), Write: r.Bool(), Fill: r.Bool()}
	}
	st.ReplyOut = wire.Resize(st.ReplyOut, r.Count(mem.ReplyWireMin+1))
	for i := range st.ReplyOut {
		st.ReplyOut[i].Reply.ReadFrom(r)
		st.ReplyOut[i].ReadyAt = r.Uvarint()
	}
	st.Cycle = r.Uvarint()
	for _, p := range st.Stats.counters() {
		*p = r.Uvarint()
	}
	st.Stats.PeakQueue = r.Int()
}

// counters lists the uint64 statistics in wire order (PeakQueue, an int,
// follows them).
func (s *Stats) counters() [11]*uint64 {
	return [...]*uint64{&s.Accesses, &s.Hits, &s.Misses, &s.MergedMisses, &s.Reads, &s.Writes, &s.Fills,
		&s.Writebacks, &s.RepliesSent, &s.MSHRStalls, &s.QueueCycles}
}

// RestoreState overwrites the slice's mutable state with a snapshot taken
// from a slice built under the same configuration. A tag store under another
// write policy than the snapshot's is emptied and switched to it first
// (SetWritePolicy's flushed-slice guard does not apply to a wholesale state
// overwrite).
func (s *Slice) RestoreState(st SliceState) error {
	if s.tags.Config().Policy != st.Policy {
		s.tags.Reset(st.Policy)
	}
	if err := s.tags.RestoreState(st.Tags); err != nil {
		return fmt.Errorf("llc slice %d: %w", s.id, err)
	}

	ptr := cache.MSHRState[*mem.Request]{
		Lines:    st.MSHRs.Lines,
		Payloads: make([][]*mem.Request, len(st.MSHRs.Payloads)),
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
