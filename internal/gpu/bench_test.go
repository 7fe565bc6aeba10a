package gpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/workload"
)

// BenchmarkStep is the loop rung of the measurement ladder: host ns per
// simulated cycle of the whole cycle loop on a warmed baseline GPU — LUD on
// the shared LLC (memory-bound, what the benchmark's memory-shared round
// runs), MM on the private LLC (issue-bound, compute-private's) and BS on the
// adaptive LLC (controller and reconfigurations) — with the share of SM
// ticks the loop skipped because the SM was frozen, and the NoC output ports
// (both networks) and the slices the reply hand-off visited per cycle.
func BenchmarkStep(b *testing.B) {
	for _, tc := range []struct {
		name, abbr string
		mode       config.LLCMode
	}{
		{"LUD-shared", "LUD", config.LLCShared},
		{"MM-private", "MM", config.LLCPrivate},
		{"BS-adaptive", "BS", config.LLCAdaptive},
	} {
		b.Run(tc.name, func(b *testing.B) {
			spec, ok := workload.ByAbbr(tc.abbr)
			if !ok {
				b.Fatalf("unknown benchmark %s", tc.abbr)
			}
			cfg := config.Baseline()
			cfg.LLCMode = tc.mode
			g, err := New(cfg, workload.MustNewGenerator(spec, cfg, 1))
			if err != nil {
				b.Fatal(err)
			}
			g.Warmup(20_000) // caches, queues and pools at their steady state
			portVisits := func() uint64 { return noc.PortVisits(g.reqNet) + noc.PortVisits(g.repNet) }
			ticks, ports, replies := g.act.ticks, portVisits(), g.act.replyVisits
			b.ReportAllocs()
			b.ResetTimer()
			g.advance(uint64(b.N), 1)
			b.StopTimer()
			st := g.collect(uint64(b.N))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
			b.ReportMetric(1-float64(g.act.ticks-ticks)/float64(st.SM.Cycles), "SM-ticks-skipped")
			b.ReportMetric(float64(portVisits()-ports)/float64(b.N), "port-visits/cycle")
			b.ReportMetric(float64(g.act.replyVisits-replies)/float64(b.N), "reply-visits/cycle")
		})
	}
}
