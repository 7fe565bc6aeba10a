package gpu

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// stateTestConfig is the fuzzer's micro GPU: small enough that a full
// save/restore/compare cycle over several modes stays fast, structurally
// complete enough (two clusters, two MCs, ATD sampling at its clamp) that
// every piece of checkpointed state is exercised.
func stateTestConfig(mode config.LLCMode) config.Config {
	cfg := config.Baseline()
	cfg.NumSMs = 4
	cfg.NumClusters = 2
	cfg.MaxWarpsPerSM = 4
	cfg.MaxCTAsPerSM = 2
	cfg.SchedulersPerSM = 1
	cfg.NumMemControllers = 2
	cfg.LLCSlicesPerMC = 2
	cfg.LLCSliceBytes = 8 * 1024
	cfg.L1SizeBytes = 6 * 1024
	cfg.L1MSHRs = 4
	cfg.LLCMSHRsPerSlice = 4
	cfg.ATDSampledSets = 4
	cfg.ProfileWindowCycles = 200
	cfg.LLCMode = mode
	return cfg
}

const (
	stateWarmup  = 2_000
	stateMeasure = 6_000
	stateKernels = 3
	stateSeed    = 7
)

func stateTestSpec(t *testing.T) workload.Spec {
	t.Helper()
	spec, ok := workload.ByAbbr("BP")
	if !ok {
		t.Fatal("unknown benchmark BP")
	}
	spec.Kernels = stateKernels
	return spec
}

// wireRoundTrip pushes a snapshot through its wire form — the payload bytes a
// checkpoint store holds — so the tests prove serialization fidelity and not
// just in-memory copying.
func wireRoundTrip(t *testing.T, st State) State {
	t.Helper()
	out, err := ParseState(st.AppendTo(nil))
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	return out
}

func requireSameStats(t *testing.T, cold, resumed RunStats) {
	t.Helper()
	if !reflect.DeepEqual(cold, resumed) {
		t.Errorf("resumed stats differ from cold run:\ncold:    %+v\nresumed: %+v", cold, resumed)
	}
}

// TestWarmupCheckpointRoundTrip saves a GPU at warmup end, restores the
// snapshot onto a freshly built GPU + program, and requires the measured run
// to be byte-identical to the uninterrupted one — for every LLC organization.
func TestWarmupCheckpointRoundTrip(t *testing.T) {
	for _, mode := range []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive} {
		t.Run(mode.String(), func(t *testing.T) {
			spec := stateTestSpec(t)
			cfg := stateTestConfig(mode)

			cold, err := New(cfg, workload.MustNewGenerator(spec, cfg, stateSeed))
			if err != nil {
				t.Fatal(err)
			}
			cold.Warmup(stateWarmup)
			st, err := cold.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			coldStats := cold.Run(stateMeasure, stateKernels)

			resumed, err := Restore(cfg, workload.MustNewGenerator(spec, cfg, stateSeed), wireRoundTrip(t, st))
			if err != nil {
				t.Fatal(err)
			}
			requireSameStats(t, coldStats, resumed.Run(stateMeasure, stateKernels))
		})
	}
}

// TestMidRunCheckpointRoundTrip saves at a kernel boundary inside the
// measured window and requires ResumeRun to reproduce the remainder exactly,
// including the statistics accumulated before the snapshot.
func TestMidRunCheckpointRoundTrip(t *testing.T) {
	for _, mode := range []config.LLCMode{config.LLCShared, config.LLCAdaptive} {
		t.Run(mode.String(), func(t *testing.T) {
			spec := stateTestSpec(t)
			cfg := stateTestConfig(mode)

			cold, err := New(cfg, workload.MustNewGenerator(spec, cfg, stateSeed))
			if err != nil {
				t.Fatal(err)
			}
			cold.Warmup(stateWarmup)
			var snaps []State
			coldStats := cold.RunCheckpointed(stateMeasure, stateKernels, func(m int) {
				st, err := cold.SaveState()
				if err != nil {
					t.Fatalf("boundary %d: %v", m, err)
				}
				snaps = append(snaps, st)
			})
			if len(snaps) != stateKernels-1 {
				t.Fatalf("expected %d boundary snapshots, got %d", stateKernels-1, len(snaps))
			}

			for i, st := range snaps {
				resumed, err := Restore(cfg, workload.MustNewGenerator(spec, cfg, stateSeed), wireRoundTrip(t, st))
				if err != nil {
					t.Fatalf("boundary %d: %v", i+1, err)
				}
				requireSameStats(t, coldStats, resumed.ResumeRun(stateMeasure, stateKernels, nil))
			}
		})
	}
}

// TestMultiProgramCheckpointRoundTrip covers per-app LLC modes: the snapshot
// carries the appModes override and the mixed write policies, with no
// SetAppModes replay on the restored GPU.
func TestMultiProgramCheckpointRoundTrip(t *testing.T) {
	specA := stateTestSpec(t)
	specB, ok := workload.ByAbbr("VA")
	if !ok {
		t.Fatal("unknown benchmark VA")
	}
	specB.Kernels = stateKernels
	cfg := stateTestConfig(config.LLCShared)
	modes := []config.LLCMode{config.LLCShared, config.LLCPrivate}

	build := func() *GPU {
		mp, err := workload.NewMultiProgram([]workload.Spec{specA, specB}, cfg, stateSeed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(cfg, mp)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	cold := build()
	if err := cold.SetAppModes(modes); err != nil {
		t.Fatal(err)
	}
	cold.Warmup(stateWarmup)
	st, err := cold.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	coldStats := cold.Run(stateMeasure, stateKernels)

	// The restored GPU never sees SetAppModes: the snapshot must carry it.
	resumed := build()
	if err := resumed.RestoreState(wireRoundTrip(t, st)); err != nil {
		t.Fatal(err)
	}
	requireSameStats(t, coldStats, resumed.Run(stateMeasure, stateKernels))
}

// TestRestoreRejectsGeometryMismatch guards the error paths: a snapshot from
// a different GPU shape or workload seed must be refused, not silently
// misapplied.
func TestRestoreRejectsGeometryMismatch(t *testing.T) {
	spec := stateTestSpec(t)
	cfg := stateTestConfig(config.LLCShared)
	g, err := New(cfg, workload.MustNewGenerator(spec, cfg, stateSeed))
	if err != nil {
		t.Fatal(err)
	}
	g.Warmup(stateWarmup)
	st, err := g.SaveState()
	if err != nil {
		t.Fatal(err)
	}

	refused := func(what string, cfg config.Config, seed int64, want string) {
		t.Helper()
		if _, err := Restore(cfg, workload.MustNewGenerator(spec, cfg, seed), st); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("restore onto %s = %v, want an error containing %q", what, err, want)
		}
	}
	bigger := cfg
	bigger.NumSMs = 8
	bigger.NumClusters = 4
	refused("a different geometry", bigger, stateSeed, "16 warps")
	refused("a different workload seed", cfg, stateSeed+1, "seed")
	refused("an adaptive GPU", stateTestConfig(config.LLCAdaptive), stateSeed, "controller presence")
	if _, err := Restore(cfg, workload.MustNewGenerator(spec, cfg, stateSeed), st); err != nil {
		t.Errorf("the refusals changed the snapshot: %v", err)
	}
}

// TestRestoreRejectsForeignMode: a snapshot whose GPU or per-application
// organization is neither shared nor private is refused, not left to index
// past the mode counters on the first cycle.
func TestRestoreRejectsForeignMode(t *testing.T) {
	spec := stateTestSpec(t)
	cfg := stateTestConfig(config.LLCShared)
	for name, forge := range map[string]func(g *GPU){
		"gpu mode": func(g *GPU) { g.mode = 5 },
		"app mode": func(g *GPU) { g.appModes = []config.LLCMode{config.LLCShared, -1} },
	} {
		g, err := New(cfg, workload.MustNewGenerator(spec, cfg, stateSeed))
		if err != nil {
			t.Fatal(err)
		}
		g.Warmup(200)
		forge(g)
		st, err := g.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(cfg, workload.MustNewGenerator(spec, cfg, stateSeed), st); err == nil || !strings.Contains(err.Error(), "other than shared or private") {
			t.Errorf("%s: Restore = %v, want the organization refused", name, err)
		}
	}
}
