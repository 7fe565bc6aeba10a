// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (run with `go test -bench=. -benchmem`). Each
// benchmark executes one full experiment at a reduced but representative
// scale and reports headline numbers as custom benchmark metrics, so a
// single `go test -bench` run reproduces the shape of the paper's results.
//
// Ablation benchmarks (BenchmarkAblation*) quantify the design choices
// called out in DESIGN.md.
package repro_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// benchOptions returns a scale small enough for benchmarking yet large
// enough for the qualitative behaviour to be visible.
func benchOptions() exp.Options {
	o := exp.DefaultOptions()
	o.MeasureCycles = 15_000
	o.WarmupCycles = 6_000
	return o
}

// reportRatio attaches a named ratio to the benchmark output.
func reportRatio(b *testing.B, name string, v float64) {
	b.Helper()
	b.ReportMetric(v, name)
}

// BenchmarkTable1_BaselineConfig validates and reports the Table 1 baseline
// configuration (a trivially cheap benchmark kept for completeness of the
// per-table index).
func BenchmarkTable1_BaselineConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.Baseline().Normalize()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_Workloads builds every Table 2 workload generator.
func BenchmarkTable2_Workloads(b *testing.B) {
	cfg := config.Baseline()
	for i := 0; i < b.N; i++ {
		for _, spec := range workload.Catalog() {
			if _, err := workload.NewGenerator(spec, cfg, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// figureTable regenerates one registry entry the way cmd/paperfigs does and
// returns its table; the benchmarks read their headline numbers out of it by
// row, column and statistic name.
func figureTable(b *testing.B, key string, o exp.Options) exp.Table {
	b.Helper()
	fig, ok := exp.FigureByKey(key)
	if !ok {
		b.Fatalf("unknown figure %q", key)
	}
	var table exp.Table
	exp.Regenerate([]exp.FigureJob{fig}, o, func(_ exp.FigureJob, t exp.Table, _, _ int, err error) {
		if err != nil {
			b.Fatal(err)
		}
		table = t
	})
	return table
}

// stat and cell read a number that must exist in the table.
func stat(b *testing.B, t exp.Table, name string) float64 {
	b.Helper()
	v, ok := t.Stat(name)
	if !ok {
		b.Fatalf("no statistic %q", name)
	}
	return v
}

func cell(b *testing.B, t exp.Table, row, column string) float64 {
	b.Helper()
	v, ok := t.Value(row, column)
	if !ok {
		b.Fatalf("no value at row %q, column %q", row, column)
	}
	return v
}

// BenchmarkFigure2_SharedVsPrivate reproduces Figure 2: private-vs-shared
// normalized performance per workload class.
func BenchmarkFigure2_SharedVsPrivate(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := figureTable(b, "2", o)
		reportRatio(b, "private-friendly-speedup", stat(b, res, "hm/private-friendly"))
		reportRatio(b, "shared-friendly-slowdown", stat(b, res, "hm/shared-friendly"))
		reportRatio(b, "neutral-ratio", stat(b, res, "hm/neutral"))
	}
}

// BenchmarkFigure3_InterClusterLocality reproduces Figure 3: the
// inter-cluster sharing histograms measured on the shared LLC.
func BenchmarkFigure3_InterClusterLocality(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := figureTable(b, "3", o)
		reportRatio(b, "multi-cluster-private-friendly", stat(b, res, "multi-cluster/private-friendly"))
		reportRatio(b, "multi-cluster-neutral", stat(b, res, "multi-cluster/neutral"))
	}
}

// BenchmarkFigure7_NoCDesignSpace reproduces Figure 7: the crossbar design
// space exploration (performance, area, power).
func BenchmarkFigure7_NoCDesignSpace(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := figureTable(b, "7", o)
		// BW/H-Xbar is the H-Xbar at the full crossbar's bisection bandwidth.
		reportRatio(b, "hxbar-vs-full-ipc", cell(b, res, "BW/H-Xbar", "norm. IPC"))
		reportRatio(b, "hxbar-vs-full-area", cell(b, res, "BW/H-Xbar", "area (mm²)")/cell(b, res, "BW/Full Xbar", "area (mm²)"))
		reportRatio(b, "hxbar-vs-full-power", cell(b, res, "BW/H-Xbar", "norm. power"))
	}
}

// BenchmarkFigure11_AdaptivePerformance reproduces Figure 11: shared /
// private / adaptive performance across all 17 benchmarks.
func BenchmarkFigure11_AdaptivePerformance(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := figureTable(b, "11", o)
		reportRatio(b, "adaptive-speedup-private-friendly", stat(b, res, "hm-adaptive/private-friendly"))
		reportRatio(b, "adaptive-vs-shared-sharedfriendly", stat(b, res, "hm-adaptive/shared-friendly"))
		reportRatio(b, "adaptive-vs-shared-neutral", stat(b, res, "hm-adaptive/neutral"))
	}
}

// BenchmarkFigure12_LLCResponseRate reproduces Figure 12: the LLC response
// rate of the private-cache-friendly workloads.
func BenchmarkFigure12_LLCResponseRate(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := figureTable(b, "12", o)
		reportRatio(b, "response-rate-gain", stat(b, res, "hm-private")/stat(b, res, "hm-shared"))
	}
}

// BenchmarkFigure13_LLCMissRate reproduces Figure 13: the LLC miss rate of
// the shared-cache-friendly workloads.
func BenchmarkFigure13_LLCMissRate(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := figureTable(b, "13", o)
		reportRatio(b, "miss-rate-increase-pp", stat(b, res, "private-increase-pp"))
		reportRatio(b, "adaptive-tracks-shared-pp", (stat(b, res, "avg-adaptive")-stat(b, res, "avg-shared"))*100)
	}
}

// BenchmarkFigure14_NoCEnergy reproduces Figure 14 and the total-system
// energy claim of §6.2.
func BenchmarkFigure14_NoCEnergy(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := figureTable(b, "14", o)
		reportRatio(b, "noc-energy-saving-pct", stat(b, res, "noc-saving-pct"))
		reportRatio(b, "system-energy-saving-pct", stat(b, res, "system-saving-pct"))
	}
}

// BenchmarkFigure15_MultiProgram reproduces Figure 15: two-program system
// throughput under adaptive caching.
func BenchmarkFigure15_MultiProgram(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := figureTable(b, "15", o)
		reportRatio(b, "stp-speedup", stat(b, res, "avg-speedup"))
	}
}

// BenchmarkFigure16_Sensitivity reproduces Figure 16: the sensitivity
// analyses (address mapping, channel width, SM count, L1 size, CTA
// scheduling).
func BenchmarkFigure16_Sensitivity(b *testing.B) {
	// The sensitivity sweep covers 15 design points x 5 workloads x 2
	// organizations; it runs at a further reduced per-run scale to keep the
	// full benchmark suite affordable.
	o := benchOptions()
	o.MeasureCycles = 8_000
	o.WarmupCycles = 3_000
	for i := 0; i < b.N; i++ {
		res := figureTable(b, "16", o)
		for _, point := range []string{"PAE", "Hynix"} {
			reportRatio(b, "adaptive-speedup-"+point,
				cell(b, res, "address mapping/"+point, "adaptive vs shared (HM over private-friendly apps)"))
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------------

// runOne measures one benchmark on the baseline configuration, as mutated,
// at the ablations' scale.
func runOne(b *testing.B, abbr string, mutate func(*config.Config)) gpu.RunStats {
	b.Helper()
	spec, ok := workload.ByAbbr(abbr)
	if !ok {
		b.Fatalf("unknown benchmark %s", abbr)
	}
	cfg := config.Baseline()
	if mutate != nil {
		mutate(&cfg)
	}
	rs, err := sweep.Execute(sweep.RunSpec{
		Workloads:     []workload.Spec{spec},
		Config:        cfg,
		Seed:          1,
		WarmupCycles:  6_000,
		MeasureCycles: 15_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkAblation_InfiniteNoC quantifies how much of the shared-LLC
// slowdown is attributable to NoC/LLC-port serialization by replacing the
// H-Xbar with an ideal infinite-bandwidth interconnect.
func BenchmarkAblation_InfiniteNoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		real := runOne(b, "MM", func(c *config.Config) { c.LLCMode = config.LLCShared })
		ideal := runOne(b, "MM", func(c *config.Config) {
			c.LLCMode = config.LLCShared
			c.NoC = config.NoCIdeal
		})
		reportRatio(b, "ideal-noc-speedup", ideal.IPC/real.IPC)
	}
}

// BenchmarkAblation_WarpsPerSM quantifies the latency-hiding assumption of
// the SM model: halving the warp contexts reduces the ability to hide memory
// latency.
func BenchmarkAblation_WarpsPerSM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := runOne(b, "GEMM", nil)
		half := runOne(b, "GEMM", func(c *config.Config) { c.MaxWarpsPerSM = 32 })
		reportRatio(b, "half-warps-ipc-ratio", half.IPC/full.IPC)
	}
}

// BenchmarkAblation_ATDSampledSets quantifies set-sampling accuracy: the
// adaptive decision quality with the paper's 8 sampled sets versus sampling
// every set of the monitored slice.
func BenchmarkAblation_ATDSampledSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sampled := runOne(b, "GEMM", func(c *config.Config) {
			c.LLCMode = config.LLCAdaptive
			c.ProfileWindowCycles = 2000
		})
		fullTags := runOne(b, "GEMM", func(c *config.Config) {
			c.LLCMode = config.LLCAdaptive
			c.ProfileWindowCycles = 2000
			c.ATDSampledSets = c.LLCSetsPerSlice()
		})
		reportRatio(b, "sampled-vs-full-ipc", sampled.IPC/fullTags.IPC)
	}
}

// BenchmarkAblation_ModelVsOracle compares the adaptive controller's
// model-driven decision against an oracle that simply runs both static
// organizations and keeps the better one.
func BenchmarkAblation_ModelVsOracle(b *testing.B) {
	benchmarks := []string{"MM", "GEMM", "VA"}
	for i := 0; i < b.N; i++ {
		var modelSum, oracleSum float64
		for _, abbr := range benchmarks {
			shared := runOne(b, abbr, func(c *config.Config) { c.LLCMode = config.LLCShared })
			private := runOne(b, abbr, func(c *config.Config) { c.LLCMode = config.LLCPrivate })
			adaptive := runOne(b, abbr, func(c *config.Config) {
				c.LLCMode = config.LLCAdaptive
				c.ProfileWindowCycles = 2000
			})
			oracle := shared.IPC
			if private.IPC > oracle {
				oracle = private.IPC
			}
			modelSum += adaptive.IPC / shared.IPC
			oracleSum += oracle / shared.IPC
		}
		reportRatio(b, "model-vs-oracle", modelSum/oracleSum)
	}
}

// BenchmarkAblation_ReconfigurationOverhead isolates the cost of the
// shared->private transition by comparing the adaptive LLC against a static
// private LLC on a workload where private is the right answer.
func BenchmarkAblation_ReconfigurationOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adaptive := runOne(b, "NN", func(c *config.Config) {
			c.LLCMode = config.LLCAdaptive
			c.ProfileWindowCycles = 2000
		})
		static := runOne(b, "NN", func(c *config.Config) { c.LLCMode = config.LLCPrivate })
		reportRatio(b, "adaptive-vs-static-private", adaptive.IPC/static.IPC)
		reportRatio(b, "reconfig-stall-cycles", float64(adaptive.ReconfigStall))
	}
}
