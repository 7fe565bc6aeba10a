package llc

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/ring"
)

// BenchmarkSliceTick is the llc rung of the measurement ladder: host
// nanoseconds per slice-cycle while a stream of read misses flows through
// (one request in, one DRAM request out, one fill and one reply back per
// cycle), and while the head of the queue is parked on a full MSHR table.
func BenchmarkSliceTick(b *testing.B) {
	cfg := config.Baseline().Normalize()
	b.Run("streaming", func(b *testing.B) {
		s := NewSlice(0, 0, 0, cfg)
		var fills ring.Deque[uint64] // FIFO: the DRAM delay is constant
		const dramDelay = 24         // < LLCMSHRsPerSlice: the table never fills
		cyc := uint64(0)
		step := func() {
			cyc++
			r := s.pool.Get()
			*r = mem.Request{ID: cyc, Addr: cyc << 7, SM: int(cyc % 80), Cluster: int(cyc % 8)}
			s.EnqueueRequest(r)
			s.Tick(cyc)
			for s.HasDRAMRequest() {
				if d, _ := s.PopDRAMRequest(); d.Fill {
					fills.PushBack(d.Addr)
				}
			}
			if fills.Len() > dramDelay {
				s.DRAMComplete(fills.PopFront())
			}
			for s.HasReply(cyc) {
				s.PopReply(cyc)
			}
		}
		for i := 0; i < 5_000; i++ {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slice-cycle")
	})
	b.Run("mshr-parked", func(b *testing.B) {
		s := NewSlice(0, 0, 0, cfg)
		for i := 0; i < cfg.LLCMSHRsPerSlice+8; i++ {
			s.EnqueueRequest(&mem.Request{ID: uint64(i), Addr: uint64(i+1) << 7})
		}
		cyc := uint64(0)
		for ; s.Stats().MSHRStalls == 0; cyc++ {
			s.Tick(cyc)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cyc++
			s.Tick(cyc)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slice-cycle")
		if s.QueueLen() != 8 {
			b.Fatalf("the parked head moved: queue %d", s.QueueLen())
		}
	})
}
