// Nocdesign: compare the full, concentrated and hierarchical crossbars in
// performance, active silicon area and energy (paper Section 3 / Figure 7),
// and show the extra NoC energy saving the hierarchical design unlocks when
// the adaptive LLC power-gates its MC-routers.
//
//	go run ./examples/nocdesign
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/power"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	spec, _ := workload.ByAbbr("NN")
	fmt.Printf("workload: %s, shared LLC, identical traffic on every design\n\n", spec.Abbr)
	fmt.Printf("%-14s  %-8s  %-12s  %-12s  %-14s\n", "design", "IPC", "area (mm²)", "energy (mJ)", "vs full xbar")

	type point struct {
		name          string
		topo          config.NoCTopology
		channel       int
		concentration int
	}
	points := []point{
		{"Full Xbar", config.NoCFull, 32, 0},
		{"C-Xbar (c=2)", config.NoCConcentrated, 32, 2},
		{"H-Xbar", config.NoCHierarchical, 32, 0},
	}

	var baseEnergy float64
	for _, p := range points {
		cfg := config.Baseline()
		cfg.NoC = p.topo
		cfg.ChannelBytes = p.channel
		if p.concentration > 0 {
			cfg.Concentration = p.concentration
		}
		rs := run(spec, cfg)
		design, err := power.NewNoCDesign(cfg)
		if err != nil {
			log.Fatal(err)
		}
		energy := design.Energy(rs.NoC, rs.Cycles, 0).Total()
		if baseEnergy == 0 {
			baseEnergy = energy
		}
		fmt.Printf("%-14s  %-8.1f  %-12.2f  %-12.3f  %.2fx\n",
			p.name, rs.IPC, design.Area().Total(), energy*1e3, energy/baseEnergy)
	}

	// The co-design bonus: with the LLC configured as a private cache, the
	// H-Xbar's MC-routers are bypassed and power-gated.
	cfg := config.Baseline()
	cfg.LLCMode = config.LLCPrivate
	rs := run(spec, cfg)
	design, err := power.NewNoCDesign(cfg)
	if err != nil {
		log.Fatal(err)
	}
	gated := design.Energy(rs.NoC, rs.Cycles, rs.GatedFraction).Total()
	fmt.Printf("%-14s  %-8.1f  %-12.2f  %-12.3f  %.2fx   (MC-routers gated %.0f%% of cycles)\n",
		"H-Xbar+gating", rs.IPC, design.Area().Total(), gated*1e3, gated/baseEnergy, rs.GatedFraction*100)

	fmt.Println("\nThe hierarchical crossbar matches the full crossbar's performance at a")
	fmt.Println("fraction of its area and energy, and the private-LLC mode gates the second")
	fmt.Println("stage for additional savings (paper Figures 7 and 14).")
}

func run(spec workload.Spec, cfg config.Config) gpu.RunStats {
	rs, err := sweep.Execute(sweep.RunSpec{
		Workloads:     []workload.Spec{spec},
		Config:        cfg,
		Seed:          1,
		WarmupCycles:  15_000,
		MeasureCycles: 40_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	return rs
}
