// Command tracetool records, inspects, replays and compares memory traces
// (see internal/trace).
//
// A trace captures the exact per-warp instruction stream of a simulation
// run; replaying it under the same configuration reproduces the run's
// statistics exactly, which makes traces usable as golden regression
// workloads, as externally-authored benchmark inputs, and as mix-ins for
// multi-program studies.
//
// Usage:
//
//	tracetool record -w MM -o mm.trace [-cycles N -warmup N -seed N -mode M -kernels K]
//	tracetool info   mm.trace
//	tracetool replay mm.trace [-cycles N -warmup N -mode M -loop]
//	tracetool diff   a.trace b.trace
//
// record runs a synthetic workload (comma-separate abbreviations for a
// multi-program recording, e.g. -w GEMM,MM) and captures its stream. replay
// defaults to the cycle counts, kernel count and LLC mode stored in the
// trace header, so a bare `tracetool replay f.trace` reproduces the
// recording; any of them can be overridden to replay the same trace under a
// different regime. diff compares two traces structurally (header and
// decoded event streams, not compression bytes) and exits 1 on difference.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tracetool: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `tracetool records, inspects, replays and compares memory traces.

subcommands:
  record -w <abbr>[,<abbr>...] -o <file>   record a synthetic run to a trace
  info   <file>                            print header and structural digest
  replay <file>                            replay a trace and print run stats
  diff   <fileA> <fileB>                   structural compare (exit 1 if different)

run "tracetool <subcommand> -h" for per-subcommand flags.
`)
}

// parseMixed parses args into fs while collecting exactly `want` positional
// arguments, accepting flags before and after the positionals (Go's flag
// package otherwise stops at the first non-flag argument).
func parseMixed(fs *flag.FlagSet, args []string, want int) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			break
		}
		pos = append(pos, rest[0])
		args = rest[1:]
	}
	switch {
	case want == 0 && len(pos) > 0:
		return nil, fmt.Errorf("%s: unexpected argument %q", fs.Name(), pos[0])
	case len(pos) != want:
		return nil, fmt.Errorf("%s: expected %d file argument(s), got %d", fs.Name(), want, len(pos))
	}
	return pos, nil
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		wl      = fs.String("w", "", "workload abbreviation(s), comma-separated for multi-program (required)")
		out     = fs.String("o", "", "output trace file (required)")
		cycles  = fs.Uint64("cycles", 20_000, "measured cycles")
		warmup  = fs.Uint64("warmup", 8_000, "warm-up cycles (recorded too; excluded from statistics)")
		seed    = fs.Int64("seed", 1, "workload generator seed")
		mode    = fs.String("mode", "shared", "LLC organization: shared, private, adaptive")
		kernels = fs.Int("kernels", 0, "kernel invocations (0 = max over workloads)")
		profile = fs.Int("profile", 2_000, "adaptive profiling window cycles")
	)
	if _, err := parseMixed(fs, args, 0); err != nil {
		return err
	}
	if *wl == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("record: -w and -o are required")
	}
	m, err := config.ParseLLCMode(*mode)
	if err != nil {
		return err
	}
	var specs []workload.Spec
	for _, abbr := range strings.Split(*wl, ",") {
		abbr = strings.TrimSpace(abbr)
		spec, ok := workload.ByAbbr(abbr)
		if !ok {
			return fmt.Errorf("record: unknown workload %q (see Table 2 abbreviations)", abbr)
		}
		specs = append(specs, spec)
	}
	cfg := config.Baseline()
	cfg.LLCMode = m
	cfg.ProfileWindowCycles = *profile

	stats, err := sweep.Execute(sweep.RunSpec{
		Key:           "record",
		Workloads:     specs,
		Config:        cfg,
		Seed:          *seed,
		MeasureCycles: *cycles,
		WarmupCycles:  *warmup,
		Kernels:       *kernels,
		RecordPath:    *out,
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %s -> %s (%.1f KB)\n", *wl, *out, float64(fi.Size())/1024)
	printStats(stats)
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	pos, err := parseMixed(fs, args, 1)
	if err != nil {
		return err
	}
	sum, err := trace.Summarize(pos[0])
	if err != nil {
		return err
	}
	fmt.Print(sum.Format())
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		cycles  = fs.Uint64("cycles", 0, "measured cycles (0 = value from trace header)")
		warmup  = fs.Int64("warmup", -1, "warm-up cycles (-1 = value from trace header)")
		mode    = fs.String("mode", "", "LLC organization override (default: mode from trace header)")
		kernels = fs.Int("kernels", 0, "kernel invocations (0 = value from trace header)")
		loop    = fs.Bool("loop", false, "rewind and replay the trace when it is exhausted (default: drain)")
	)
	pos, err := parseMixed(fs, args, 1)
	if err != nil {
		return err
	}
	path := pos[0]

	r, err := trace.Open(path)
	if err != nil {
		return err
	}
	hdr := r.Header()
	r.Close()

	// Replay on the recorded geometry (grafted onto the baseline for all
	// parameters the header does not carry); -mode can override the LLC
	// organization to study the same stream under a different cache.
	cfg := config.Baseline()
	cfg.NumSMs = hdr.NumSMs
	cfg.MaxWarpsPerSM = hdr.MaxWarpsPerSM
	cfg.NumClusters = hdr.NumClusters
	cfg.LLCLineBytes = hdr.LLCLineBytes
	cfg.L1LineBytes = hdr.LLCLineBytes
	if hdr.ProfileWindowCycles > 0 {
		cfg.ProfileWindowCycles = hdr.ProfileWindowCycles
	}
	if hdr.EpochCycles > 0 {
		cfg.EpochCycles = hdr.EpochCycles
	}
	modeStr := hdr.LLCMode
	if *mode != "" {
		modeStr = *mode
	}
	if modeStr != "" {
		m, err := config.ParseLLCMode(modeStr)
		if err != nil {
			return err
		}
		cfg.LLCMode = m
	}

	measure := hdr.MeasureCycles
	if *cycles > 0 {
		measure = *cycles
	}
	if measure == 0 {
		return fmt.Errorf("replay: trace header has no cycle count; pass -cycles")
	}
	warm := hdr.WarmupCycles
	if *warmup >= 0 {
		warm = uint64(*warmup)
	}

	stats, err := sweep.Execute(sweep.RunSpec{
		Key:           "replay",
		TracePath:     path,
		TraceLoop:     *loop,
		Config:        cfg,
		MeasureCycles: measure,
		WarmupCycles:  warm,
		Kernels:       *kernels,
	})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %s for %d cycles (mode=%s, eof=%s)\n",
		path, measure, cfg.LLCMode, map[bool]string{false: "drain", true: "loop"}[*loop])
	printStats(stats)
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	pos, err := parseMixed(fs, args, 2)
	if err != nil {
		return err
	}
	d, err := trace.Diff(pos[0], pos[1])
	if err != nil {
		return err
	}
	fmt.Print(d.Format())
	if !d.Equal {
		os.Exit(1)
	}
	return nil
}

func printStats(s gpu.RunStats) {
	fmt.Printf("  cycles        %d\n", s.Cycles)
	fmt.Printf("  instructions  %d\n", s.Instructions)
	fmt.Printf("  IPC           %.3f\n", s.IPC)
	fmt.Printf("  L1 miss rate  %.4f\n", s.L1MissRate)
	fmt.Printf("  LLC miss rate %.4f\n", s.LLCMissRate)
	fmt.Printf("  LLC accesses  %d\n", s.LLC.Accesses)
	fmt.Printf("  DRAM accesses %d\n", s.DRAMAccesses)
	fmt.Printf("  final mode    %s\n", s.FinalMode)
	if s.ReconfigCount > 0 {
		fmt.Printf("  reconfigs     %d (%d stall cycles)\n", s.ReconfigCount, s.ReconfigStall)
	}
}
