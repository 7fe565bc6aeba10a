// Edge-case coverage for NewMultiProgramMixed. This lives in an external
// test package so it can co-execute trace players (internal/trace imports
// workload; the reverse import would cycle).
package workload_test

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mixedConfig is a 4-SM / 2-cluster GPU: two SMs per cluster, so mixed
// co-executions cap at two programs.
func mixedConfig() config.Config {
	cfg := config.Baseline()
	cfg.NumSMs = 4
	cfg.NumClusters = 2
	cfg.MaxWarpsPerSM = 8
	cfg.MaxCTAsPerSM = 4
	cfg.SchedulersPerSM = 1
	cfg.NumMemControllers = 2
	cfg.LLCSlicesPerMC = 2
	cfg.LLCSliceBytes = 16 * 1024
	cfg.L1SizeBytes = 12 * 1024
	cfg.L1MSHRs = 8
	cfg.LLCMSHRsPerSlice = 8
	cfg.ProfileWindowCycles = 500
	return cfg
}

func TestMultiProgramMixedRejectsEmptyList(t *testing.T) {
	if _, err := workload.NewMultiProgramMixed(nil, mixedConfig()); err == nil {
		t.Fatal("empty program list must be rejected")
	}
	if _, err := workload.NewMultiProgramMixed([]workload.Program{}, mixedConfig()); err == nil {
		t.Fatal("zero-length program list must be rejected")
	}
}

func TestMultiProgramMixedRejectsNilProgram(t *testing.T) {
	cfg := mixedConfig()
	spec, _ := workload.ByAbbr("VA")
	gen := workload.MustNewGenerator(spec, cfg, 1)
	if _, err := workload.NewMultiProgramMixed([]workload.Program{gen, nil}, cfg); err == nil {
		t.Fatal("nil program in the list must be rejected")
	}
}

func TestMultiProgramMixedRejectsTooManyApps(t *testing.T) {
	cfg := mixedConfig() // two SMs per cluster
	spec, _ := workload.ByAbbr("VA")
	progs := []workload.Program{
		workload.MustNewGenerator(spec, cfg, 1),
		workload.MustNewGenerator(spec, cfg, 2),
		workload.MustNewGenerator(spec, cfg, 3),
	}
	if _, err := workload.NewMultiProgramMixed(progs, cfg); err == nil {
		t.Fatal("three apps on two SMs per cluster must be rejected")
	}
}

// TestMultiProgramMixedSingleProgram checks the degenerate one-program
// co-execution: every SM runs app 0 and the run behaves like a plain
// single-program run.
func TestMultiProgramMixedSingleProgram(t *testing.T) {
	cfg := mixedConfig()
	spec, _ := workload.ByAbbr("VA")
	gen := workload.MustNewGenerator(spec, cfg, 1)
	mp, err := workload.NewMultiProgramMixed([]workload.Program{gen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Apps() != 1 {
		t.Fatalf("Apps() = %d, want 1", mp.Apps())
	}
	for sm := 0; sm < cfg.NumSMs; sm++ {
		if mp.AppOf(sm) != 0 {
			t.Fatalf("AppOf(%d) = %d, want 0", sm, mp.AppOf(sm))
		}
	}
	g, err := gpu.New(cfg, mp)
	if err != nil {
		t.Fatal(err)
	}
	stats := g.Run(2_000, 1)
	if stats.Instructions == 0 {
		t.Fatal("single-program mix issued no instructions")
	}
	if len(stats.AppInstructions) > 1 {
		t.Fatalf("AppInstructions = %v, want at most one app", stats.AppInstructions)
	}
}

// TestMultiProgramMixedGeometryFold records a trace on a wide-warp
// configuration, then replays it through a Player folded onto a
// narrower-warp configuration inside a mixed co-execution: the
// mismatched-geometry path of the player must stay deterministic and keep
// both applications issuing.
func TestMultiProgramMixedGeometryFold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-GPU mixed runs skipped in -short mode")
	}
	wide := mixedConfig() // 8 warps per SM
	spec, _ := workload.ByAbbr("VA")
	path := filepath.Join(t.TempDir(), "wide.trace")
	if _, err := sweep.Execute(sweep.RunSpec{
		Key: "record", Workloads: []workload.Spec{spec}, Config: wide,
		Seed: 3, MeasureCycles: 2_000, WarmupCycles: 500, RecordPath: path,
	}); err != nil {
		t.Fatal(err)
	}

	narrow := mixedConfig()
	narrow.MaxWarpsPerSM = 4 // replay folds 8 recorded warp slots onto 4
	narrow.MaxCTAsPerSM = 2
	gemm, _ := workload.ByAbbr("GEMM")

	run := func() gpu.RunStats {
		t.Helper()
		gen := workload.MustNewGenerator(gemm, narrow, 5)
		player, err := trace.NewPlayer(path, narrow, trace.EOFLoop)
		if err != nil {
			t.Fatal(err)
		}
		defer player.Close()
		mp, err := workload.NewMultiProgramMixed([]workload.Program{gen, player}, narrow)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gpu.New(narrow, mp)
		if err != nil {
			t.Fatal(err)
		}
		return g.Run(3_000, 1)
	}

	first := run()
	if len(first.AppInstructions) != 2 {
		t.Fatalf("AppInstructions = %v, want 2 apps", first.AppInstructions)
	}
	for app, instr := range first.AppInstructions {
		if instr == 0 {
			t.Errorf("app %d issued no instructions", app)
		}
	}
	second := run()
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Error("folded mixed replay is not deterministic across two runs")
	}
}
