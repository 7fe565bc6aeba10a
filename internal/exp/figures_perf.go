package exp

import (
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Figures 2, 3, 11, 12, 13 and 14 are views of one grid — every Table 2
// workload under the shared, private and adaptive LLC, keyed
// "<abbr>/<mode>" — so their Specs functions are slices of it and their
// Table functions read rows out of the keyed statistics in catalog order.

// allModes lists the three LLC organizations the performance figures sweep.
var allModes = []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive}

// classes is the order in which per-class summary lines print.
var classes = []workload.Class{workload.SharedFriendly, workload.PrivateFriendly, workload.Neutral}

// modeSpecs declares each workload under each of the given LLC modes.
func (o Options) modeSpecs(ws []workload.Spec, modes ...config.LLCMode) []sweep.RunSpec {
	var specs []sweep.RunSpec
	for _, w := range ws {
		for _, mode := range modes {
			specs = append(specs, o.modeSpec(w, mode))
		}
	}
	return specs
}

// ---------------------------------------------------------------------------
// Figure 2 — shared vs. private LLC, per workload class
// ---------------------------------------------------------------------------

func figure2Specs(o Options) []sweep.RunSpec {
	return o.modeSpecs(workload.Catalog(), config.LLCShared, config.LLCPrivate)
}

// figure2Table is the performance of each benchmark under a private LLC
// normalized to the shared-LLC baseline, with per-class harmonic means.
func figure2Table(_ Options, stats map[string]gpu.RunStats) (Table, error) {
	var rows [][]any
	perClass := map[workload.Class][]float64{}
	for _, w := range workload.Catalog() {
		shared := stats[modeKey(w.Abbr, config.LLCShared)]
		private := stats[modeKey(w.Abbr, config.LLCPrivate)]
		n := norm(private.IPC, shared.IPC)
		rows = append(rows, []any{w.Abbr, w.Class.String(), shared.IPC, private.IPC, n})
		perClass[w.Class] = append(perClass[w.Class], n)
	}
	var summary []summaryLine
	for _, c := range classes {
		summary = append(summary, line("HM ("+c.String()+"): %.3f", stat{"hm/" + c.String(), hmean(perClass[c])}))
	}
	return newTable("Figure 2: normalized performance of a private vs. shared LLC", 1,
		[]column{{"benchmark", ""}, {"class", ""}, {"shared IPC", "%.1f"}, {"private IPC", "%.1f"}, {"private norm.", "%.3f"}},
		rows, summary...)
}

// ---------------------------------------------------------------------------
// Figure 3 — inter-cluster locality
// ---------------------------------------------------------------------------

func figure3Specs(o Options) []sweep.RunSpec {
	return o.modeSpecs(workload.Catalog(), config.LLCShared)
}

// figure3Table is the per-benchmark sharing histogram measured on the shared
// LLC in 1,000-cycle windows, with the per-class average of the fraction of
// lines touched by more than one cluster.
func figure3Table(_ Options, stats map[string]gpu.RunStats) (Table, error) {
	var rows [][]any
	perClass := map[workload.Class][]float64{}
	for _, w := range workload.Catalog() {
		h := stats[modeKey(w.Abbr, config.LLCShared)].SharingHistogram
		rows = append(rows, []any{w.Abbr, w.Class.String(), h[0], h[1], h[2], h[3]})
		perClass[w.Class] = append(perClass[w.Class], h[1]+h[2]+h[3])
	}
	var summary []summaryLine
	for _, c := range classes {
		summary = append(summary, line("avg multi-cluster fraction ("+c.String()+"): %.2f",
			stat{"multi-cluster/" + c.String(), metrics.ArithmeticMean(perClass[c])}))
	}
	return newTable("Figure 3: inter-cluster locality (fraction of LLC lines accessed by N clusters per 1,000 cycles)", 1,
		[]column{{"benchmark", ""}, {"class", ""}, {"1 cluster", "%.2f"}, {"2 clusters", "%.2f"}, {"3-4 clusters", "%.2f"}, {"5-8 clusters", "%.2f"}},
		rows, summary...)
}

// ---------------------------------------------------------------------------
// Figure 11 — shared / private / adaptive performance
// ---------------------------------------------------------------------------

func figure11Specs(o Options) []sweep.RunSpec {
	return o.modeSpecs(workload.Catalog(), allModes...)
}

// figure11Table is the per-benchmark IPC under the three LLC organizations
// normalized to the shared LLC, with per-class harmonic means.
func figure11Table(_ Options, stats map[string]gpu.RunStats) (Table, error) {
	var rows [][]any
	private := map[workload.Class][]float64{}
	adaptive := map[workload.Class][]float64{}
	for _, w := range workload.Catalog() {
		shared := stats[modeKey(w.Abbr, config.LLCShared)]
		adapt := stats[modeKey(w.Abbr, config.LLCAdaptive)]
		np := norm(stats[modeKey(w.Abbr, config.LLCPrivate)].IPC, shared.IPC)
		na := norm(adapt.IPC, shared.IPC)
		rows = append(rows, []any{w.Abbr, w.Class.String(), 1.0, np, na, adapt.FinalMode.String()})
		private[w.Class] = append(private[w.Class], np)
		adaptive[w.Class] = append(adaptive[w.Class], na)
	}
	var summary []summaryLine
	for _, c := range classes {
		summary = append(summary, line("HM ("+c.String()+"): private %.3f, adaptive %.3f",
			stat{"hm-private/" + c.String(), hmean(private[c])},
			stat{"hm-adaptive/" + c.String(), hmean(adaptive[c])}))
	}
	return newTable("Figure 11: normalized IPC for shared, private and adaptive memory-side LLCs", 1,
		[]column{{"benchmark", ""}, {"class", ""}, {"shared", "%.3f"}, {"private", "%.3f"}, {"adaptive", "%.3f"}, {"final mode", ""}},
		rows, summary...)
}

// ---------------------------------------------------------------------------
// Figures 12 and 13 — one metric of one workload class under the three modes
// ---------------------------------------------------------------------------

// perMode reads one metric of each workload under the three organizations:
// a row per workload, and the metric's column per mode for the summary.
func perMode(ws []workload.Spec, stats map[string]gpu.RunStats, metric func(gpu.RunStats) float64) (rows [][]any, byMode [3][]float64) {
	for _, w := range ws {
		row := []any{w.Abbr}
		for i, mode := range allModes {
			v := metric(stats[modeKey(w.Abbr, mode)])
			row = append(row, v)
			byMode[i] = append(byMode[i], v)
		}
		rows = append(rows, row)
	}
	return rows, byMode
}

func figure12Specs(o Options) []sweep.RunSpec {
	return o.modeSpecs(workload.ByClass(workload.PrivateFriendly), allModes...)
}

// figure12Table is the LLC response rate (reply flits per cycle) of the
// private-cache-friendly benchmarks.
func figure12Table(_ Options, stats map[string]gpu.RunStats) (Table, error) {
	rows, by := perMode(workload.ByClass(workload.PrivateFriendly), stats,
		func(rs gpu.RunStats) float64 { return rs.ResponseRate })
	return newTable("Figure 12: LLC response rate (flits/cycle), private-cache-friendly workloads", 1,
		[]column{{"benchmark", ""}, {"shared", "%.2f"}, {"private", "%.2f"}, {"adaptive", "%.2f"}}, rows,
		line("HM: shared %.2f, private %.2f, adaptive %.2f",
			stat{"hm-shared", hmean(by[0])}, stat{"hm-private", hmean(by[1])}, stat{"hm-adaptive", hmean(by[2])}))
}

func figure13Specs(o Options) []sweep.RunSpec {
	return o.modeSpecs(workload.ByClass(workload.SharedFriendly), allModes...)
}

// figure13Table is the LLC miss rate of the shared-cache-friendly benchmarks.
func figure13Table(_ Options, stats map[string]gpu.RunStats) (Table, error) {
	rows, by := perMode(workload.ByClass(workload.SharedFriendly), stats,
		func(rs gpu.RunStats) float64 { return rs.LLCMissRate })
	shared, private := metrics.ArithmeticMean(by[0]), metrics.ArithmeticMean(by[1])
	return newTable("Figure 13: LLC miss rate, shared-cache-friendly workloads", 1,
		[]column{{"benchmark", ""}, {"shared", "%.3f"}, {"private", "%.3f"}, {"adaptive", "%.3f"}}, rows,
		line("AVG: shared %.3f, private %.3f (+%.1f pp), adaptive %.3f",
			stat{"avg-shared", shared}, stat{"avg-private", private},
			stat{"private-increase-pp", (private - shared) * 100}, stat{"avg-adaptive", metrics.ArithmeticMean(by[2])}))
}
