// Command adaptivesim runs one benchmark on the simulated GPU under a chosen
// memory-side LLC organization and prints the key statistics.
//
// Examples:
//
//	adaptivesim -bench AN -mode shared
//	adaptivesim -bench AN -mode private -cycles 200000
//	adaptivesim -bench GEMM -mode adaptive -noc h-xbar -verbose
//	adaptivesim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/config"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	var (
		benchFlag   = flag.String("bench", "AN", "benchmark abbreviation (see -list)")
		modeFlag    = flag.String("mode", "shared", "LLC mode: shared | private | adaptive")
		nocFlag     = flag.String("noc", "h-xbar", "NoC topology: h-xbar | full-xbar | c-xbar | ideal")
		cyclesFlag  = flag.Uint64("cycles", 120_000, "simulated core cycles (measured)")
		warmupFlag  = flag.Uint64("warmup", 20_000, "warm-up cycles excluded from the statistics")
		seedFlag    = flag.Int64("seed", 1, "workload generator seed")
		mappingFlag = flag.String("mapping", "pae", "address mapping: pae | hynix")
		profileFlag = flag.Int("profile-window", 2_000, "adaptive profiling window (cycles)")
		epochFlag   = flag.Int("epoch", 1_000_000, "adaptive epoch length (cycles)")
		listFlag    = flag.Bool("list", false, "list available benchmarks and exit")
		verboseFlag = flag.Bool("verbose", false, "print extended statistics")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops parsing at the first non-flag, so everything after a
		// stray argument would be silently ignored.
		fmt.Fprintf(os.Stderr, "adaptivesim: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *listFlag {
		listBenchmarks()
		return
	}

	spec, ok := workload.ByAbbr(*benchFlag)
	if !ok {
		fatalf("unknown benchmark %q (use -list)", *benchFlag)
	}

	cfg := config.Baseline()
	var err error
	if cfg.LLCMode, err = config.ParseLLCMode(*modeFlag); err != nil {
		fatalf("%v", err)
	}
	if cfg.NoC, err = config.ParseNoCTopology(*nocFlag); err != nil {
		fatalf("%v", err)
	}
	if cfg.Mapping, err = config.ParseAddressMapping(*mappingFlag); err != nil {
		fatalf("%v", err)
	}
	cfg.ProfileWindowCycles = *profileFlag
	cfg.EpochCycles = *epochFlag

	// The same declarative run the figure harness executes, so everything a
	// run can report reaches this tool and paperfigs through one function.
	rs, err := sweep.Execute(sweep.RunSpec{
		Key:           spec.Abbr,
		Workloads:     []workload.Spec{spec},
		Config:        cfg,
		Seed:          *seedFlag,
		MeasureCycles: *cyclesFlag,
		WarmupCycles:  *warmupFlag,
	})
	if err != nil {
		fatalf("%v", err)
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\t%s (%s, %s)\n", spec.Abbr, spec.Name, spec.Class)
	fmt.Fprintf(w, "LLC mode\t%s (final: %s)\n", cfg.LLCMode, rs.FinalMode)
	fmt.Fprintf(w, "cycles\t%d\n", rs.Cycles)
	fmt.Fprintf(w, "instructions\t%d\n", rs.Instructions)
	fmt.Fprintf(w, "IPC\t%.3f\n", rs.IPC)
	fmt.Fprintf(w, "L1 miss rate\t%.3f\n", rs.L1MissRate)
	fmt.Fprintf(w, "LLC accesses\t%d\n", rs.LLC.Accesses)
	fmt.Fprintf(w, "LLC miss rate\t%.3f\n", rs.LLCMissRate)
	fmt.Fprintf(w, "LLC response rate (flits/cycle)\t%.3f\n", rs.ResponseRate)
	fmt.Fprintf(w, "DRAM accesses\t%d\n", rs.DRAMAccesses)
	fmt.Fprintf(w, "sharing histogram (1/2/3-4/5-8 clusters)\t%.2f / %.2f / %.2f / %.2f\n",
		rs.SharingHistogram[0], rs.SharingHistogram[1], rs.SharingHistogram[2], rs.SharingHistogram[3])
	if rs.Controller != nil {
		fmt.Fprintf(w, "adaptive: windows\t%d\n", rs.Controller.ProfileWindows)
		fmt.Fprintf(w, "adaptive: switches to private\t%d (rule1 %d, rule2 %d)\n",
			rs.Controller.SwitchesToPrivate, rs.Controller.Rule1Decisions, rs.Controller.Rule2Decisions)
		fmt.Fprintf(w, "adaptive: gated fraction\t%.2f\n", rs.GatedFraction)
		fmt.Fprintf(w, "adaptive: reconfigurations\t%d (stall %d cycles)\n", rs.ReconfigCount, rs.ReconfigStall)
		if rs.LastPrediction != nil {
			p := rs.LastPrediction
			fmt.Fprintf(w, "adaptive: predicted miss shared/private\t%.3f / %.3f\n", p.SharedMissRate, p.PrivateMissRate)
			fmt.Fprintf(w, "adaptive: predicted LSP shared/private\t%.1f / %.1f\n", p.SharedLSP, p.PrivateLSP)
			fmt.Fprintf(w, "adaptive: predicted BW shared/private (B/cyc)\t%.0f / %.0f\n", p.SharedBandwidth, p.PrivateBandwidth)
		}
	}
	if *verboseFlag {
		fmt.Fprintf(w, "NoC request avg latency\t%.1f\n", rs.ReqNet.AvgLatency())
		fmt.Fprintf(w, "NoC reply avg latency\t%.1f\n", rs.RepNet.AvgLatency())
		fmt.Fprintf(w, "NoC inject stalls\t%d\n", rs.NoC.InjectStallCycles)
		fmt.Fprintf(w, "DRAM row hit rate\t%.3f\n", rs.DRAM.RowHitRate())
		fmt.Fprintf(w, "DRAM avg queueing\t%.1f\n", rs.DRAM.AvgQueueingDelay())
		fmt.Fprintf(w, "SM structural stalls\t%d\n", rs.SM.StallStructural)
		fmt.Fprintf(w, "SM no-ready-warp stalls\t%d\n", rs.SM.StallNoReadyWarp)
		fmt.Fprintf(w, "avg load latency\t%.1f\n", rs.SM.AvgLoadLatency())
		fmt.Fprintf(w, "LLC MSHR stalls\t%d\n", rs.LLC.MSHRStalls)
		fmt.Fprintf(w, "LLC peak queue\t%d\n", rs.LLC.PeakQueue)
	}
	w.Flush()
}

func listBenchmarks() {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ABBR\tNAME\tCLASS\tSHARED DATA (MB)\tKERNELS")
	for _, s := range workload.Catalog() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.3f\t%d\n", s.Abbr, s.Name, s.Class, s.SharedDataMB, s.Kernels)
	}
	w.Flush()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adaptivesim: "+format+"\n", args...)
	os.Exit(1)
}
