package main

import (
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The outside-in loop is only worth its phase shares if it simulates the
// same machine as gpu.Run: on the scaled-down smoke GPU the instruction,
// LLC-access and DRAM-request counts must match exactly, for both static
// organizations and a read-only as well as a store-carrying workload.
func TestLoopTraceMatchesGPURun(t *testing.T) {
	const cycles = 2_000
	for _, abbr := range []string{"MM", "LUD"} {
		for _, mode := range []config.LLCMode{config.LLCShared, config.LLCPrivate} {
			w, _ := workload.ByAbbr(abbr)
			spec := sweep.RunSpec{Workloads: []workload.Spec{w}, Config: scenario.SmokeConfig(mode), Seed: 7}
			build := func() workload.Program {
				prog, _, err := sweep.BuildProgram(spec)
				if err != nil {
					t.Fatal(err)
				}
				return prog
			}
			l, err := newLoopTrace(spec.Config, build())
			if err != nil {
				t.Fatal(err)
			}
			l.run(cycles)
			g, err := gpu.New(spec.Config, build())
			if err != nil {
				t.Fatal(err)
			}
			got, want := l.counts(), countsOf(g.Run(cycles, 1))
			if got != want {
				t.Errorf("%s/%v: outside-in loop %+v, gpu.Run %+v", abbr, mode, got, want)
			}
			if want.Instructions == 0 || want.LLCAccesses == 0 || want.DRAMRequests == 0 {
				t.Errorf("%s/%v: degenerate run %+v proves nothing", abbr, mode, want)
			}
			if d := loopDivergence(got, want); d != 0 {
				t.Errorf("%s/%v: divergence %v, want 0", abbr, mode, d)
			}
		}
	}
	if _, err := newLoopTrace(scenario.SmokeConfig(config.LLCAdaptive), nil); err == nil {
		t.Error("the adaptive LLC must be refused: the outside-in loop has no controller")
	}
}

func TestLoopDivergence(t *testing.T) {
	a := loopCounts{Instructions: 100, LLCAccesses: 50, DRAMRequests: 10}
	b := loopCounts{Instructions: 100, LLCAccesses: 40, DRAMRequests: 10}
	if got := loopDivergence(a, b); !near(got, 0.2) {
		t.Errorf("divergence = %v, want 0.2", got)
	}
}
