package dram

import (
	"math/rand"
	"testing"

	"repro/internal/config"
)

// BenchmarkControllerTick is the dram rung of the measurement ladder: host
// nanoseconds per controller-cycle with nothing queued, under a stream that
// keeps hitting open rows, and with the queue held full of requests that
// conflict in their banks (the shape LUD on the shared LLC produces).
func BenchmarkControllerTick(b *testing.B) {
	cfg := config.Baseline().Normalize()
	run := func(b *testing.B, offer func(c *Controller, cyc int)) {
		c := NewController(0, cfg)
		step := func(cyc int) {
			offer(c, cyc)
			c.Tick()
		}
		for cyc := 0; cyc < 5_000; cyc++ { // reach the steady state
			step(cyc)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(5_000 + i)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/MC-cycle")
	}
	b.Run("idle", func(b *testing.B) {
		run(b, func(*Controller, int) {})
	})
	b.Run("row-hit-stream", func(b *testing.B) {
		run(b, func(c *Controller, cyc int) {
			if cyc%2 == 0 && c.CanAccept() { // one line per burst: the bus keeps up
				c.Enqueue(Request{ID: uint64(cyc), Bank: cyc / 2 % cfg.BanksPerMC, Row: 3})
			}
		})
	})
	b.Run("saturated-conflict", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		reqs := make([]Request, 4096)
		for i := range reqs {
			reqs[i] = Request{ID: uint64(i), Bank: rng.Intn(cfg.BanksPerMC), Row: uint64(rng.Intn(1 << 14)), Write: i%6 == 0}
		}
		next := 0
		run(b, func(c *Controller, _ int) {
			for c.CanAccept() {
				c.Enqueue(reqs[next%len(reqs)])
				next++
			}
		})
	})
}
