package llc

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/wire"
)

// AppendState appends the slice's wire form: the write policy (which
// reconfiguration changes at runtime), the tag store, the MSHR table with its
// merged requests, the three queues, the cycle and the statistics.
func (s *Slice) AppendState(b []byte) []byte {
	b = wire.AppendInt(b, int(s.tags.Config().Policy))
	b = s.tags.AppendState(b)
	b = s.mshrs.AppendState(b, mem.AppendRequest)
	b = mem.AppendQueue(b, &s.inq)
	b = wire.AppendUvarint(b, uint64(s.dramOut.Len()))
	for i := 0; i < s.dramOut.Len(); i++ {
		d := s.dramOut.At(i)
		b = wire.AppendUvarint(b, d.Addr)
		b = wire.AppendBool(b, d.Write)
		b = wire.AppendBool(b, d.Fill)
	}
	b = wire.AppendUvarint(b, uint64(s.replyOut.Len()))
	for i := 0; i < s.replyOut.Len(); i++ {
		pr := s.replyOut.At(i)
		b = mem.AppendReply(b, &pr.reply)
		b = wire.AppendUvarint(b, pr.readyAt)
	}
	b = wire.AppendUvarint(b, s.cycle)
	for _, p := range s.stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	return wire.AppendInt(b, s.stats.PeakQueue)
}

// counters lists the uint64 statistics in wire order (PeakQueue, an int,
// follows them).
func (s *Stats) counters() [11]*uint64 {
	return [...]*uint64{&s.Accesses, &s.Hits, &s.Misses, &s.MergedMisses, &s.Reads, &s.Writes, &s.Fills,
		&s.Writebacks, &s.RepliesSent, &s.MSHRStalls, &s.QueueCycles}
}

// RestoreState overwrites the slice's state with the next one in r, written
// by a slice built under the same configuration. A tag store under another
// write policy than the snapshot's is emptied and switched to it first
// (SetWritePolicy's flushed-slice guard does not apply to a wholesale state
// overwrite). Queued requests are taken from the slice's request pool: the
// single-container ownership invariant makes them equivalent to the ones
// written. On a failure, recorded in r, the slice holds nothing usable.
func (s *Slice) RestoreState(r *wire.Reader) {
	if p := cache.WritePolicy(r.Int()); s.tags.Config().Policy != p {
		s.tags.Reset(p)
	}
	s.tags.RestoreState(r)
	s.mshrs.RestoreState(r, mem.RequestWireMin, func(r *wire.Reader, _ int) *mem.Request {
		q := s.pool.Get()
		q.ReadFrom(r)
		return q
	})
	mem.ReadQueue(r, &s.inq, s.pool)
	s.dramOut.Clear()
	for range r.Count(3) {
		s.dramOut.PushBack(DRAMRequest{Addr: r.Uvarint(), Write: r.Bool(), Fill: r.Bool()})
	}
	s.replyOut.Clear()
	for range r.Count(mem.ReplyWireMin + 1) {
		var pr pendingReply
		pr.reply.ReadFrom(r)
		pr.readyAt = r.Uvarint()
		s.replyOut.PushBack(pr)
	}
	s.cycle = r.Uvarint()
	for _, p := range s.stats.counters() {
		*p = r.Uvarint()
	}
	s.stats.PeakQueue = r.Int()
	s.parked = false // derived: the next Tick asks again
}
