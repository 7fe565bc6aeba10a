// Multiprogram: co-execute a shared-cache-friendly and a private-cache-
// friendly application on one GPU (paper §6.3 / Figures 9 and 15).
//
// The SMs of every cluster are split between the two applications, so both
// can reach the entire LLC capacity. With a conventional shared LLC both
// applications see the same organization; with adaptive caching each gets
// its preferred one simultaneously: the shared-friendly application keeps
// address-interleaved (shared) slices while the private-friendly one indexes
// by cluster (private), without extra hardware.
//
//	go run ./examples/multiprogram
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	sharedApp, _ := workload.ByAbbr("GEMM") // shared-cache friendly
	privApp, _ := workload.ByAbbr("MM")     // private-cache friendly
	fmt.Printf("co-executing %s (shared-friendly) with %s (private-friendly)\n\n", sharedApp.Abbr, privApp.Abbr)

	// Single-program IPC under the baseline shared LLC is the STP reference.
	alone := []float64{
		runSingle(sharedApp, config.LLCShared),
		runSingle(privApp, config.LLCShared),
	}
	fmt.Printf("alone (shared LLC):        %s %.1f IPC, %s %.1f IPC\n", sharedApp.Abbr, alone[0], privApp.Abbr, alone[1])

	// Co-execution with a conventional shared LLC for both applications.
	bothShared := runPair(sharedApp, privApp, nil)
	stpShared, err := metrics.STP(bothShared, alone)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("co-run, shared LLC:        %s %.1f IPC, %s %.1f IPC, STP %.2f\n",
		sharedApp.Abbr, bothShared[0], privApp.Abbr, bothShared[1], stpShared)

	// Co-execution with per-application LLC organizations (adaptive caching's
	// multi-program configuration).
	bothAdaptive := runPair(sharedApp, privApp, []config.LLCMode{config.LLCShared, config.LLCPrivate})
	stpAdaptive, err := metrics.STP(bothAdaptive, alone)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("co-run, per-app LLC modes: %s %.1f IPC, %s %.1f IPC, STP %.2f\n",
		sharedApp.Abbr, bothAdaptive[0], privApp.Abbr, bothAdaptive[1], stpAdaptive)

	fmt.Printf("\nSTP improvement from serving each application with its preferred organization: %.1f%%\n",
		(stpAdaptive/stpShared-1)*100)
}

func runSingle(spec workload.Spec, mode config.LLCMode) float64 {
	cfg := config.Baseline()
	cfg.LLCMode = mode
	return run(sweep.RunSpec{Workloads: []workload.Spec{spec}, Config: cfg}).IPC
}

// runPair co-executes the two applications and returns their per-app IPC.
// appModes nil means both use the (shared) baseline organization.
func runPair(a, b workload.Spec, appModes []config.LLCMode) []float64 {
	return run(sweep.RunSpec{Workloads: []workload.Spec{a, b}, Config: config.Baseline(), AppModes: appModes}).AppIPC
}

// run warms s up and measures it at the example's scale; the measured window
// is split into the largest kernel count among its workloads.
func run(s sweep.RunSpec) gpu.RunStats {
	s.Seed = 1
	s.WarmupCycles = 20_000
	s.MeasureCycles = 60_000
	rs, err := sweep.Execute(s)
	if err != nil {
		log.Fatal(err)
	}
	return rs
}
