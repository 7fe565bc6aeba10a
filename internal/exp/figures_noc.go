package exp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 7 — NoC design-space exploration
// ---------------------------------------------------------------------------

// nocDesignPoint is one bar group member of Figure 7: a topology paired with
// the channel width that gives it the group's bisection bandwidth.
type nocDesignPoint struct {
	Name          string
	Group         string // BW, BW/2, BW/4, BW/8
	Topology      config.NoCTopology
	ChannelBytes  int
	Concentration int
}

// key identifies the design point inside the figure's sweep (Name alone is
// not unique: the H-Xbar appears in every bandwidth group).
func (dp nocDesignPoint) key(abbr string) string {
	return dp.Group + "/" + dp.Name + "/" + abbr
}

// config applies the design point to a baseline shared-LLC configuration.
func (dp nocDesignPoint) config(o Options) config.Config {
	cfg := o.baseConfig(config.LLCShared)
	cfg.NoC = dp.Topology
	cfg.ChannelBytes = dp.ChannelBytes
	if dp.Concentration > 0 {
		cfg.Concentration = dp.Concentration
	}
	holdLargestPacket(&cfg)
	return cfg
}

// holdLargestPacket deepens the router input buffers to hold one reply or
// store, the longest packet: at channels narrower than 32 B it outgrows the
// baseline's 8 flits and could never be injected.
func holdLargestPacket(c *config.Config) {
	c.FlitsPerVC = max(c.FlitsPerVC, c.ReplyFlits())
}

// figure7DesignPoints mirrors the pairing used in the paper: the full
// crossbar anchors the BW group; each lower-bandwidth group pairs a
// concentrated crossbar at 32-byte channels with an H-Xbar whose channel is
// narrowed to match the bisection bandwidth.
func figure7DesignPoints() []nocDesignPoint {
	return []nocDesignPoint{
		{Name: "Full Xbar", Group: "BW", Topology: config.NoCFull, ChannelBytes: 32},
		{Name: "H-Xbar", Group: "BW", Topology: config.NoCHierarchical, ChannelBytes: 32},
		{Name: "C-Xbar c=2", Group: "BW/2", Topology: config.NoCConcentrated, ChannelBytes: 32, Concentration: 2},
		{Name: "H-Xbar", Group: "BW/2", Topology: config.NoCHierarchical, ChannelBytes: 16},
		{Name: "C-Xbar c=4", Group: "BW/4", Topology: config.NoCConcentrated, ChannelBytes: 32, Concentration: 4},
		{Name: "H-Xbar", Group: "BW/4", Topology: config.NoCHierarchical, ChannelBytes: 8},
		{Name: "C-Xbar c=8", Group: "BW/8", Topology: config.NoCConcentrated, ChannelBytes: 32, Concentration: 8},
		{Name: "H-Xbar", Group: "BW/8", Topology: config.NoCHierarchical, ChannelBytes: 4},
	}
}

// figure7Workloads is the benchmark subset used for the design-space sweep
// (one representative per class keeps the sweep affordable).
func figure7Workloads() []workload.Spec {
	var ws []workload.Spec
	for _, abbr := range []string{"MM", "GEMM", "VA", "NN"} {
		if w, ok := workload.ByAbbr(abbr); ok {
			ws = append(ws, w)
		}
	}
	return ws
}

// figure7Specs declares all 8 design points x 4 benchmarks.
func figure7Specs(o Options) []sweep.RunSpec {
	var specs []sweep.RunSpec
	ws := figure7Workloads()
	for _, dp := range figure7DesignPoints() {
		cfg := dp.config(o)
		for _, w := range ws {
			specs = append(specs, o.runSpec(dp.key(w.Abbr), cfg, w))
		}
	}
	return specs
}

// figure7Table explores the crossbar design space: performance from timing
// simulation, area and power from the DSENT-style model fed with the
// simulated activity factors, IPC and power normalized to the full crossbar
// (the first design point).
func figure7Table(o Options, stats map[string]gpu.RunStats) (Table, error) {
	var rows [][]any
	var baseIPC, basePower float64
	ws := figure7Workloads()
	for i, dp := range figure7DesignPoints() {
		design, err := power.NewNoCDesign(dp.config(o))
		if err != nil {
			return Table{}, fmt.Errorf("figure7 %s: %w", dp.Name, err)
		}
		var ipcSum float64
		var activity noc.Stats
		var cycles uint64
		for _, w := range ws {
			rs := stats[dp.key(w.Abbr)]
			ipcSum += rs.IPC
			activity.Add(rs.NoC)
			cycles += rs.Cycles
		}
		ipc := ipcSum / float64(len(ws))
		energy := design.Energy(activity, cycles, 0).Total()
		if i == 0 {
			baseIPC, basePower = ipc, energy
		}
		area := design.Area()
		rows = append(rows, []any{dp.Group, dp.Name, norm(ipc, baseIPC),
			area.Total(), area.Buffer, area.Crossbar, area.Links, area.Other, norm(energy, basePower)})
	}
	return newTable("Figure 7: NoC design space (performance, active silicon area, power)", 2,
		[]column{{"group", ""}, {"design", ""}, {"norm. IPC", "%.3f"}, {"area (mm²)", "%.2f"}, {"buffer", "%.2f"},
			{"crossbar", "%.2f"}, {"links", "%.2f"}, {"other", "%.2f"}, {"norm. power", "%.3f"}},
		rows)
}

// ---------------------------------------------------------------------------
// Figure 14 — NoC energy under adaptive caching (+ total system energy, §6.2)
// ---------------------------------------------------------------------------

// figure14Workloads is the private-friendly and neutral classes: the ones for
// which the adaptive LLC selects the private organization and power-gates the
// MC-routers.
func figure14Workloads() []workload.Spec {
	return append(workload.ByClass(workload.PrivateFriendly), workload.ByClass(workload.Neutral)...)
}

func figure14Specs(o Options) []sweep.RunSpec {
	return o.modeSpecs(figure14Workloads(), config.LLCShared, config.LLCAdaptive)
}

// figure14Table is the NoC energy of each benchmark under the adaptive LLC
// normalized to the shared-LLC baseline, with the component breakdown as
// fractions of the shared total, plus the total system energy ratio.
func figure14Table(o Options, stats map[string]gpu.RunStats) (Table, error) {
	model, err := power.NewSystemModel(o.baseConfig(config.LLCShared))
	if err != nil {
		return Table{}, err
	}
	design := model.NoCDesign()

	var rows [][]any
	var nocs, systems []float64
	for _, w := range figure14Workloads() {
		shared := stats[modeKey(w.Abbr, config.LLCShared)]
		adaptive := stats[modeKey(w.Abbr, config.LLCAdaptive)]
		tot := design.Energy(shared.NoC, shared.Cycles, 0).Total()
		e := design.Energy(adaptive.NoC, adaptive.Cycles, adaptive.GatedFraction)
		normNoC := norm(e.Total(), tot)
		normSys := norm(model.Energy(systemActivity(adaptive)).Total(), model.Energy(systemActivity(shared)).Total())
		rows = append(rows, []any{w.Abbr, w.Class.String(), adaptive.GatedFraction, normNoC,
			norm(e.Buffer, tot), norm(e.Crossbar, tot), norm(e.Links, tot), norm(e.Other, tot), normSys})
		nocs = append(nocs, normNoC)
		systems = append(systems, normSys)
	}
	avgNoC, avgSys := metrics.ArithmeticMean(nocs), metrics.ArithmeticMean(systems)
	return newTable("Figure 14: NoC energy under adaptive caching, normalized to a shared LLC (plus total system energy, §6.2)", 1,
		[]column{{"benchmark", ""}, {"class", ""}, {"gated frac", "%.2f"}, {"NoC energy (norm.)", "%.3f"}, {"buffer", "%.2f"},
			{"crossbar", "%.2f"}, {"links", "%.2f"}, {"other", "%.2f"}, {"system energy (norm.)", "%.3f"}},
		rows,
		line("AVG: NoC energy %.3f (%.1f%% saving), system energy %.3f (%.1f%% saving)",
			stat{"avg-noc", avgNoC}, stat{"noc-saving-pct", (1 - avgNoC) * 100},
			stat{"avg-system", avgSys}, stat{"system-saving-pct", (1 - avgSys) * 100}))
}

// systemActivity converts run statistics into the power model's activity
// descriptor.
func systemActivity(rs gpu.RunStats) power.SystemActivity {
	return power.SystemActivity{
		Cycles:        rs.Cycles,
		Instructions:  rs.Instructions,
		L1Accesses:    rs.SM.L1Hits + rs.SM.L1Misses,
		LLCAccesses:   rs.LLC.Accesses,
		DRAMAccesses:  rs.DRAMAccesses,
		NoC:           rs.NoC,
		GatedFraction: rs.GatedFraction,
	}
}
