package exp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 15 — multi-program workloads
// ---------------------------------------------------------------------------

// pairKey identifies one co-execution run inside Figure 15's sweep.
func pairKey(sharedAbbr, privAbbr, variant string) string {
	return "pair/" + sharedAbbr + "+" + privAbbr + "/" + variant
}

// pairSpec declares the co-execution of a shared-friendly and a
// private-friendly application. With adaptive=true the shared-friendly
// application keeps a shared LLC view while the private-friendly one gets a
// private view (the paper's adaptive multi-program configuration); otherwise
// both use the shared LLC.
func (o Options) pairSpec(sharedSpec, privSpec workload.Spec, adaptive bool) sweep.RunSpec {
	variant := "shared"
	s := o.runSpec("", o.baseConfig(config.LLCShared), sharedSpec, privSpec)
	if adaptive {
		variant = "adaptive"
		s.AppModes = []config.LLCMode{config.LLCShared, config.LLCPrivate}
	}
	s.Key = pairKey(sharedSpec.Abbr, privSpec.Abbr, variant)
	return s
}

// figure15Specs declares the single-program "alone" baselines and every
// shared-friendly x private-friendly two-program combination under a shared
// LLC and under adaptive caching; all are independent runs.
func figure15Specs(o Options) []sweep.RunSpec {
	var specs []sweep.RunSpec
	for _, w := range workload.Catalog() {
		if w.Class == workload.Neutral {
			continue
		}
		specs = append(specs, o.runSpec("alone/"+w.Abbr, o.baseConfig(config.LLCShared), w))
	}
	for _, sharedSpec := range workload.ByClass(workload.SharedFriendly) {
		for _, privSpec := range workload.ByClass(workload.PrivateFriendly) {
			specs = append(specs,
				o.pairSpec(sharedSpec, privSpec, false),
				o.pairSpec(sharedSpec, privSpec, true))
		}
	}
	return specs
}

// figure15Table is one row per two-program combination — a
// shared-cache-friendly application co-running with a private-cache-friendly
// one — in catalog order (the paper sorts its bars by adaptive STP; the rows
// here are not sorted). STP is reported for a conventional shared LLC and for
// adaptive caching, which serves each application with its preferred
// organization simultaneously (Figure 9).
func figure15Table(_ Options, stats map[string]gpu.RunStats) (Table, error) {
	var rows [][]any
	var speedups []float64
	for _, sharedSpec := range workload.ByClass(workload.SharedFriendly) {
		for _, privSpec := range workload.ByClass(workload.PrivateFriendly) {
			alone := []float64{
				stats["alone/"+sharedSpec.Abbr].IPC,
				stats["alone/"+privSpec.Abbr].IPC,
			}
			var stp [2]float64
			for i, variant := range []string{"shared", "adaptive"} {
				var err error
				stp[i], err = metrics.STP(stats[pairKey(sharedSpec.Abbr, privSpec.Abbr, variant)].AppIPC, alone)
				if err != nil {
					return Table{}, fmt.Errorf("figure15 pair %s+%s: %w", sharedSpec.Abbr, privSpec.Abbr, err)
				}
			}
			speedup := norm(stp[1], stp[0])
			rows = append(rows, []any{sharedSpec.Abbr, privSpec.Abbr, stp[0], stp[1], speedup})
			speedups = append(speedups, speedup)
		}
	}
	avg := metrics.ArithmeticMean(speedups)
	return newTable("Figure 15: multi-program system throughput (two-program combinations)", 2,
		[]column{{"shared app", ""}, {"private app", ""}, {"STP shared LLC", "%.3f"}, {"STP adaptive LLC", "%.3f"}, {"speedup", "%.3f"}},
		rows,
		line("AVG STP speedup of adaptive over shared: %.3f (%.1f%%)",
			stat{"avg-speedup", avg}, stat{"avg-speedup-pct", (avg - 1) * 100}))
}

// ---------------------------------------------------------------------------
// Figure 16 — sensitivity analyses
// ---------------------------------------------------------------------------

// figure16Workloads returns the workload set used for the sensitivity study
// (the private-cache-friendly applications, as in the paper).
func figure16Workloads() []workload.Spec {
	return workload.ByClass(workload.PrivateFriendly)
}

// figure16Variant is one design point of the sensitivity study.
type figure16Variant struct {
	category string
	point    string
	mutate   func(*config.Config)
}

// key identifies one run of the sensitivity sweep.
func (v figure16Variant) key(abbr string, mode config.LLCMode) string {
	return v.category + "/" + v.point + "/" + modeKey(abbr, mode)
}

func figure16Variants() []figure16Variant {
	return []figure16Variant{
		{"address mapping", "PAE", func(c *config.Config) { c.Mapping = config.MappingPAE }},
		{"address mapping", "Hynix", func(c *config.Config) { c.Mapping = config.MappingHynix }},
		{"channel width", "64B", func(c *config.Config) { c.ChannelBytes = 64 }},
		{"channel width", "32B", func(c *config.Config) { c.ChannelBytes = 32 }},
		{"channel width", "16B", func(c *config.Config) { c.ChannelBytes = 16 }},
		{"SM count", "40", func(c *config.Config) { scaleSMs(c, 40) }},
		{"SM count", "80", func(c *config.Config) { scaleSMs(c, 80) }},
		{"SM count", "160", func(c *config.Config) { scaleSMs(c, 160) }},
		{"L1 size", "48KB", func(c *config.Config) { setL1(c, 48*1024, 6) }},
		{"L1 size", "64KB", func(c *config.Config) { setL1(c, 64*1024, 8) }},
		{"L1 size", "96KB", func(c *config.Config) { setL1(c, 96*1024, 6) }},
		{"L1 size", "128KB", func(c *config.Config) { setL1(c, 128*1024, 8) }},
		{"CTA scheduling", "two-level RR", func(c *config.Config) { c.CTAScheduler = config.CTATwoLevelRR }},
		{"CTA scheduling", "BCS", func(c *config.Config) { c.CTAScheduler = config.CTABlock }},
		{"CTA scheduling", "DCS", func(c *config.Config) { c.CTAScheduler = config.CTADistributed }},
	}
}

// figure16Specs sweeps address mapping, NoC channel width, SM count, L1 size
// and CTA scheduling policy: 15 variants x 5 workloads x 2 organizations.
// Five of the variants spell out the baseline's own value, so 40 of the 150
// declared runs repeat another's fingerprint.
func figure16Specs(o Options) []sweep.RunSpec {
	var specs []sweep.RunSpec
	for _, v := range figure16Variants() {
		for _, mode := range []config.LLCMode{config.LLCShared, config.LLCAdaptive} {
			cfg := o.baseConfig(mode)
			v.mutate(&cfg)
			holdLargestPacket(&cfg)
			for _, w := range figure16Workloads() {
				specs = append(specs, o.runSpec(v.key(w.Abbr, mode), cfg, w))
			}
		}
	}
	return specs
}

// figure16Column heads Figure 16's one column of numbers.
const figure16Column = "adaptive vs shared (HM over private-friendly apps)"

// figure16Table reports, per design point, the harmonic mean over the
// private-cache-friendly workloads of the adaptive LLC's IPC normalized to a
// shared LLC.
func figure16Table(_ Options, stats map[string]gpu.RunStats) (Table, error) {
	var rows [][]any
	for _, v := range figure16Variants() {
		var ratios []float64
		for _, w := range figure16Workloads() {
			shared := stats[v.key(w.Abbr, config.LLCShared)]
			adaptive := stats[v.key(w.Abbr, config.LLCAdaptive)]
			ratios = append(ratios, norm(adaptive.IPC, shared.IPC))
		}
		rows = append(rows, []any{v.category, v.point, hmean(ratios)})
	}
	return newTable("Figure 16: sensitivity analyses (adaptive LLC speedup over shared LLC)", 2,
		[]column{{"category", ""}, {"design point", ""}, {figure16Column, "%.3f"}},
		rows)
}

// scaleSMs changes the SM count while keeping 10 SMs per cluster and the
// NoC/LLC co-design constraint (#clusters == #slices per MC), as the paper's
// sensitivity study does.
func scaleSMs(c *config.Config, sms int) {
	smsPerCluster := 10
	c.NumSMs = sms
	c.NumClusters = sms / smsPerCluster
	c.LLCSlicesPerMC = c.NumClusters
}

// setL1 sets the per-SM L1 capacity, adjusting associativity so the set
// count stays integral.
func setL1(c *config.Config, bytes, ways int) {
	c.L1SizeBytes = bytes
	c.L1Ways = ways
}

// ---------------------------------------------------------------------------
// Tables 1 and 2
// ---------------------------------------------------------------------------

// tables is the registry entry for Tables 1 and 2: the baseline architecture
// followed by the benchmark catalog.
func tables(Options, map[string]gpu.RunStats) (Table, error) {
	c := config.Baseline().Normalize()
	t1, err := newTable("Table 1: baseline GPU architecture", 1, []column{{"parameter", ""}, {"value", ""}}, [][]any{
		{"Streaming Multiprocessors", fmt.Sprintf("%d SMs, %d MHz", c.NumSMs, c.CoreClockMHz)},
		{"Warp size", fmt.Sprintf("%d", c.WarpSize)},
		{"Schedulers / SM", fmt.Sprintf("%d (GTO)", c.SchedulersPerSM)},
		{"Threads / SM", fmt.Sprintf("%d", c.MaxWarpsPerSM*c.WarpSize)},
		{"L1 data cache / SM", fmt.Sprintf("%d KB, %d-way, LRU, %d B line", c.L1SizeBytes/1024, c.L1Ways, c.L1LineBytes)},
		{"Memory controllers", fmt.Sprintf("%d", c.NumMemControllers)},
		{"LLC slices / MC", fmt.Sprintf("%d x %d KB, %d-way, LRU, %d B line", c.LLCSlicesPerMC, c.LLCSliceBytes/1024, c.LLCWays, c.LLCLineBytes)},
		{"LLC total", fmt.Sprintf("%d MB, %d cycles access time", c.TotalLLCBytes()/(1024*1024), c.LLCLatency)},
		{"Interconnect", fmt.Sprintf("%s, %d B channel, %d-stage router", c.NoC, c.ChannelBytes, c.RouterPipeline)},
		{"DRAM", fmt.Sprintf("FR-FCFS, %d banks/MC, %.0f GB/s", c.BanksPerMC, c.DRAMBandwidthGBs)},
		{"GDDR5 timing", fmt.Sprintf("tCL=%d tRP=%d tRC=%d tRAS=%d tRCD=%d tRRD=%d tCCD=%d tWR=%d",
			c.Timing.TCL, c.Timing.TRP, c.Timing.TRC, c.Timing.TRAS, c.Timing.TRCD, c.Timing.TRRD, c.Timing.TCCD, c.Timing.TWR)},
	})
	if err != nil {
		return Table{}, err
	}
	var rows [][]any
	for _, s := range workload.Catalog() {
		rows = append(rows, []any{s.Name, s.Abbr, s.SharedDataMB, float64(s.Kernels), s.Class.String()})
	}
	t2, err := newTable("Table 2: GPU benchmarks", 1,
		[]column{{"benchmark", ""}, {"abbr", ""}, {"shared data (MB)", "%.3f"}, {"kernels", "%.0f"}, {"class", ""}}, rows)
	if err != nil {
		return Table{}, err
	}
	t1.next = &t2
	return t1, nil
}
