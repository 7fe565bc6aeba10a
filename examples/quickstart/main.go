// Quickstart: declare one run per memory-side LLC organization for a
// benchmark, execute them and compare the outcomes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	// 1. Pick a workload from the Table 2 catalog. Matrix Multiply is one of
	//    the paper's private-cache-friendly benchmarks: its CTAs read the
	//    same read-only operand matrix in lockstep.
	spec, ok := workload.ByAbbr("MM")
	if !ok {
		log.Fatal("benchmark MM not found")
	}
	fmt.Printf("benchmark: %s (%s), shared footprint %.1f MB, class %s\n\n",
		spec.Name, spec.Abbr, spec.SharedDataMB, spec.Class)

	// 2. Run it under a shared, a private and an adaptive memory-side LLC.
	modes := []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive}
	var sharedIPC float64
	for _, mode := range modes {
		cfg := config.Baseline() // Table 1 of the paper
		cfg.LLCMode = mode
		cfg.ProfileWindowCycles = 2_000 // scaled-down profiling window for short runs

		// Warm the caches, then measure; the measured window is split into
		// the benchmark's kernel invocations.
		rs, err := sweep.Execute(sweep.RunSpec{
			Workloads:     []workload.Spec{spec},
			Config:        cfg,
			Seed:          1,
			WarmupCycles:  20_000,
			MeasureCycles: 60_000,
		})
		if err != nil {
			log.Fatal(err)
		}

		if mode == config.LLCShared {
			sharedIPC = rs.IPC
		}
		fmt.Printf("%-8s LLC: IPC %7.1f (%.2fx vs shared)  LLC miss %.3f  response rate %.2f flits/cycle  final mode %s\n",
			mode, rs.IPC, rs.IPC/sharedIPC, rs.LLCMissRate, rs.ResponseRate, rs.FinalMode)
		if rs.Controller != nil {
			fmt.Printf("         adaptive controller: %d profile windows, %d switches to private (rule1 %d / rule2 %d), MC-routers gated %.0f%% of cycles\n",
				rs.Controller.ProfileWindows, rs.Controller.SwitchesToPrivate,
				rs.Controller.Rule1Decisions, rs.Controller.Rule2Decisions, rs.GatedFraction*100)
		}
	}

	fmt.Println("\nThe private organization replicates the shared operand across the LLC")
	fmt.Println("slices of every cluster, so the hot lines are served in parallel instead")
	fmt.Println("of serializing on a single slice; the adaptive LLC discovers this at run")
	fmt.Println("time and reconfigures itself (paper Sections 2 and 4).")
}
