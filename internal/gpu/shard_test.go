package gpu

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// shardTestConfig is the determinism matrix's micro GPU: like
// stateTestConfig but with enough SMs, schedulers and slices that contiguous
// shard partitioning is non-trivial (8 SMs, 4 slices — so 3 and 5 shards
// both leave uneven ranges).
func shardTestConfig(mode config.LLCMode) config.Config {
	cfg := stateTestConfig(mode)
	cfg.NumSMs = 8
	cfg.NumClusters = 2
	cfg.SchedulersPerSM = 2
	return cfg
}

// runMatrixPoint executes one warmup+measured run at the given shard count,
// capturing RunStats and a wire-encoded State snapshot at every kernel
// boundary.
func runMatrixPoint(t *testing.T, cfg config.Config, spec workload.Spec, shards int) (RunStats, [][]byte) {
	t.Helper()
	cfg.Shards = shards
	g, err := New(cfg, workload.MustNewGenerator(spec, cfg, stateSeed))
	if err != nil {
		t.Fatal(err)
	}
	g.Warmup(stateWarmup)
	var snaps [][]byte
	stats := g.RunCheckpointed(stateMeasure, stateKernels, func(m int) {
		st, err := g.SaveState()
		if err != nil {
			t.Fatalf("boundary %d: %v", m, err)
		}
		snaps = append(snaps, st.AppendTo(nil))
	})
	return stats, snaps
}

// TestShardedDeterminismMatrix is the sharded loop's absolute gate: for
// every LLC organization, running with 2, 3, 5 and GOMAXPROCS shards
// (including counts that do not divide the SM or slice count) must produce
// RunStats and kernel-boundary State snapshots byte-identical to the serial
// loop's. A last column saturates the memory side (LUD on the shared LLC in
// front of shallow controller queues), so the snapshots hold full DRAM
// queues, parked slice heads and refused hand-offs.
func TestShardedDeterminismMatrix(t *testing.T) {
	shardCounts := []int{2, 3, 5, runtime.GOMAXPROCS(0)}
	type column struct {
		name string
		cfg  config.Config
		spec workload.Spec
	}
	var columns []column
	for _, mode := range []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive} {
		columns = append(columns, column{mode.String(), shardTestConfig(mode), stateTestSpec(t)})
	}
	lud, ok := workload.ByAbbr("LUD")
	if !ok {
		t.Fatal("unknown benchmark LUD")
	}
	lud.Kernels = stateKernels
	saturated := shardTestConfig(config.LLCShared)
	saturated.MCQueueDepth = 8
	columns = append(columns, column{"saturated-LUD-shared", saturated, lud})

	for _, col := range columns {
		t.Run(col.name, func(t *testing.T) {
			cfg := col.cfg
			serialStats, serialSnaps := runMatrixPoint(t, cfg, col.spec, 1)
			if len(serialSnaps) != stateKernels-1 {
				t.Fatalf("expected %d boundary snapshots, got %d", stateKernels-1, len(serialSnaps))
			}
			if col.name == "saturated-LUD-shared" {
				if s := serialStats; s.DRAM.StallsFull == 0 || s.LLC.MSHRStalls == 0 || s.RepNet.InjectStallCycles == 0 {
					t.Fatalf("the column is not saturated: %d controller refusals, %d MSHR stalls, %d reply-net refusals",
						s.DRAM.StallsFull, s.LLC.MSHRStalls, s.RepNet.InjectStallCycles)
				}
			}
			for _, n := range shardCounts {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					stats, snaps := runMatrixPoint(t, cfg, col.spec, n)
					if !reflect.DeepEqual(serialStats, stats) {
						t.Errorf("RunStats differ from serial loop:\nserial:  %+v\nsharded: %+v", serialStats, stats)
					}
					if len(snaps) != len(serialSnaps) {
						t.Fatalf("snapshot count %d, serial %d", len(snaps), len(serialSnaps))
					}
					for i := range snaps {
						if !bytes.Equal(serialSnaps[i], snaps[i]) {
							t.Errorf("boundary %d state snapshot differs from serial loop", i+1)
						}
					}
				})
			}
		})
	}
}

// TestShardedMultiProgramIdentity covers the per-app LLC-mode path (sliceFor
// reads appModes inside the parallel execute phase): a mixed
// shared+private co-execution must be shard-count invariant.
func TestShardedMultiProgramIdentity(t *testing.T) {
	specA := stateTestSpec(t)
	specB, ok := workload.ByAbbr("VA")
	if !ok {
		t.Fatal("unknown benchmark VA")
	}
	specB.Kernels = stateKernels
	modes := []config.LLCMode{config.LLCShared, config.LLCPrivate}

	run := func(shards int) RunStats {
		cfg := shardTestConfig(config.LLCShared)
		cfg.Shards = shards
		mp, err := workload.NewMultiProgram([]workload.Spec{specA, specB}, cfg, stateSeed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(cfg, mp)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetAppModes(modes); err != nil {
			t.Fatal(err)
		}
		g.Warmup(stateWarmup)
		return g.Run(stateMeasure, stateKernels)
	}

	serial := run(1)
	for _, n := range []int{2, 3} {
		if got := run(n); !reflect.DeepEqual(serial, got) {
			t.Errorf("shards=%d: multi-program stats differ from serial loop", n)
		}
	}
}

// TestShardedCheckpointRoundTrip banks kernel-boundary snapshots from a
// *sharded* run and resumes them under a *different* shard count: the
// resumed halves must reproduce the serial run's statistics exactly. This is
// the bank->restore round-trip gate under sharding, and doubles as proof
// that checkpoints are shard-blind in both directions.
func TestShardedCheckpointRoundTrip(t *testing.T) {
	spec := stateTestSpec(t)
	cfg := shardTestConfig(config.LLCAdaptive)

	serialCfg := cfg
	serialCfg.Shards = 1
	serial, err := New(serialCfg, workload.MustNewGenerator(spec, serialCfg, stateSeed))
	if err != nil {
		t.Fatal(err)
	}
	serial.Warmup(stateWarmup)
	serialStats := serial.Run(stateMeasure, stateKernels)

	bankCfg := cfg
	bankCfg.Shards = 3
	banked, err := New(bankCfg, workload.MustNewGenerator(spec, bankCfg, stateSeed))
	if err != nil {
		t.Fatal(err)
	}
	banked.Warmup(stateWarmup)
	var snaps []State
	bankedStats := banked.RunCheckpointed(stateMeasure, stateKernels, func(m int) {
		st, err := banked.SaveState()
		if err != nil {
			t.Fatalf("boundary %d: %v", m, err)
		}
		snaps = append(snaps, st)
	})
	requireSameStats(t, serialStats, bankedStats)
	if len(snaps) != stateKernels-1 {
		t.Fatalf("expected %d boundary snapshots, got %d", stateKernels-1, len(snaps))
	}

	resumeCfg := cfg
	resumeCfg.Shards = 2
	for i, st := range snaps {
		resumed, err := Restore(resumeCfg, workload.MustNewGenerator(spec, resumeCfg, stateSeed), wireRoundTrip(t, st))
		if err != nil {
			t.Fatalf("boundary %d: %v", i+1, err)
		}
		if got := resumed.Shards(); got != 2 {
			t.Fatalf("restored GPU has %d shards, want 2", got)
		}
		requireSameStats(t, serialStats, resumed.ResumeRun(stateMeasure, stateKernels, nil))
	}
}
