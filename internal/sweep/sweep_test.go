package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/workload"
)

// tinyCfg returns a valid baseline configuration with the given LLC mode at
// the scale the exp harness uses for its smallest runs.
func tinyCfg(mode config.LLCMode) config.Config {
	cfg := config.Baseline()
	cfg.LLCMode = mode
	cfg.ProfileWindowCycles = 1_000
	cfg.EpochCycles = 1_000_000
	return cfg
}

// figureSpecs builds the same batch a figure harness would: every
// private-friendly benchmark under a shared and a private LLC (the shape of
// paper Figure 12), at a tiny cycle count.
func figureSpecs(measure, warmup uint64) []RunSpec {
	var specs []RunSpec
	for _, w := range workload.ByClass(workload.PrivateFriendly) {
		for _, mode := range []config.LLCMode{config.LLCShared, config.LLCPrivate} {
			specs = append(specs, RunSpec{
				Key:           w.Abbr + "/" + mode.String(),
				Workloads:     []workload.Spec{w},
				Config:        tinyCfg(mode),
				Seed:          1,
				MeasureCycles: measure,
				WarmupCycles:  warmup,
			})
		}
	}
	return specs
}

// TestParallelMatchesSerial is the engine's core guarantee: the same figure
// spec run serially and run across a worker pool produces byte-identical
// RunStats in the same positions.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	specs := figureSpecs(3_000, 1_000)

	serial := &Runner{Workers: 1}
	want, err := serial.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	for _, workers := range []int{0, 4, len(specs) + 3} {
		par := &Runner{Workers: workers}
		got, err := par.Run(context.Background(), specs)
		if err != nil {
			t.Fatalf("parallel run (workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: parallel results differ from serial", workers)
		}
	}

	for i, res := range want {
		if res.Index != i || res.Key != specs[i].Key {
			t.Errorf("result %d: index/key mismatch (%d, %q)", i, res.Index, res.Key)
		}
		if res.Stats.Instructions == 0 {
			t.Errorf("run %q made no progress", res.Key)
		}
	}
}

// TestExecuteMultiProgram covers the multi-program path with per-app LLC
// modes, the configuration Figure 15 sweeps.
func TestExecuteMultiProgram(t *testing.T) {
	sharedApp := workload.ByClass(workload.SharedFriendly)[0]
	privApp := workload.ByClass(workload.PrivateFriendly)[0]
	rs, err := Execute(RunSpec{
		Key:           "pair",
		Workloads:     []workload.Spec{sharedApp, privApp},
		Config:        tinyCfg(config.LLCShared),
		AppModes:      []config.LLCMode{config.LLCShared, config.LLCPrivate},
		Seed:          1,
		MeasureCycles: 3_000,
		WarmupCycles:  1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.AppIPC) != 2 {
		t.Fatalf("AppIPC entries = %d, want 2", len(rs.AppIPC))
	}
	if rs.Instructions == 0 {
		t.Error("multi-program run made no progress")
	}
}

// TestExecuteErrors exercises the declarative validation paths.
func TestExecuteErrors(t *testing.T) {
	if _, err := Execute(RunSpec{Key: "empty"}); err == nil {
		t.Error("empty workload list must fail")
	}
	w, _ := workload.ByAbbr("VA")
	if _, err := Execute(RunSpec{Key: "bad-cfg", Workloads: []workload.Spec{w}}); err == nil {
		t.Error("zero config must fail validation")
	}
}

// TestErrorPropagation checks that one failing run aborts the batch, that
// the batch error names the failed run, and that runs completed before the
// failure keep their results.
func TestErrorPropagation(t *testing.T) {
	w, _ := workload.ByAbbr("VA")
	good := RunSpec{
		Key: "good", Workloads: []workload.Spec{w},
		Config: tinyCfg(config.LLCShared), Seed: 1, MeasureCycles: 1_000,
	}
	specs := []RunSpec{good, {Key: "broken"}, good, good, good, good}
	specs[2].Key = "good-2"

	r := &Runner{Workers: 2}
	results, err := r.Run(context.Background(), specs)
	if err == nil {
		t.Fatal("batch with a broken run must fail")
	}
	if !strings.Contains(err.Error(), `"broken"`) {
		t.Errorf("error should name the failed run, got: %v", err)
	}
	if results[1].Err == nil {
		t.Error("the broken run's own result must carry its error")
	}
	executed := 0
	for _, res := range results {
		if res.Stats.Instructions > 0 {
			executed++
		}
	}
	if executed == len(specs) {
		t.Error("failure should cancel dispatch of the remaining runs")
	}
}

// TestCancellation checks both pre-cancelled and mid-flight cancellation.
func TestCancellation(t *testing.T) {
	specs := figureSpecs(1_000, 0)

	// Pre-cancelled context: nothing may be dispatched.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Workers: 4}
	results, err := r.Run(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, res := range results {
		if res.Stats.Instructions > 0 {
			t.Fatalf("run %q executed despite pre-cancelled context", res.Key)
		}
	}

	// Cancel after the first completion: the batch must stop early and
	// still report positionally-correct partial results.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	r = &Runner{Workers: 1, OnProgress: func(p Progress) {
		if p.Done == 1 {
			cancel()
		}
	}}
	results, err = r.Run(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	executed := 0
	for i, res := range results {
		if res.Key != specs[i].Key {
			t.Fatalf("result %d carries key %q, want %q", i, res.Key, specs[i].Key)
		}
		if res.Stats.Instructions > 0 {
			executed++
		}
	}
	if executed == 0 || executed >= len(specs) {
		t.Errorf("executed %d of %d runs, want a proper prefix", executed, len(specs))
	}
}

// TestProgressReporting checks that Done counts monotonically to Total and
// that every key is reported exactly once.
func TestProgressReporting(t *testing.T) {
	specs := figureSpecs(1_000, 0)[:6]
	seen := map[string]int{}
	last := 0
	r := &Runner{Workers: 3, OnProgress: func(p Progress) {
		if p.Total != len(specs) {
			t.Errorf("Total = %d, want %d", p.Total, len(specs))
		}
		if p.Done != last+1 {
			t.Errorf("Done jumped from %d to %d", last, p.Done)
		}
		last = p.Done
		seen[p.Key]++
	}}
	if _, err := r.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if last != len(specs) {
		t.Errorf("final Done = %d, want %d", last, len(specs))
	}
	for _, s := range specs {
		if seen[s.Key] != 1 {
			t.Errorf("key %q reported %d times", s.Key, seen[s.Key])
		}
	}
}

// TestKernelsDefault checks the multi-workload kernel resolution.
func TestKernelsDefault(t *testing.T) {
	a, _ := workload.ByAbbr("AN") // 6 kernels
	b, _ := workload.ByAbbr("VA") // 1 kernel
	s := RunSpec{Workloads: []workload.Spec{b, a}}
	if got := s.kernels(); got != 6 {
		t.Errorf("kernels() = %d, want 6 (max over workloads)", got)
	}
	s.Kernels = 2
	if got := s.kernels(); got != 2 {
		t.Errorf("kernels() = %d, want explicit 2", got)
	}
}

// TestCanonical checks that canonicalization erases exactly the differences
// that cannot affect simulation results.
func TestCanonical(t *testing.T) {
	w, _ := workload.ByAbbr("VA")
	base := RunSpec{
		Key:           "a-name",
		Workloads:     []workload.Spec{w},
		Config:        tinyCfg(config.LLCShared),
		Seed:          7,
		MeasureCycles: 1_000,
	}

	// Key is erased; an explicitly-spelled-out kernel default
	// and derived config fields compare equal to their unset forms.
	other := base
	other.Key = "another-name"
	other.Kernels = w.Kernels
	other.Config = other.Config.Normalize()
	if !reflect.DeepEqual(base.Canonical(), other.Canonical()) {
		t.Errorf("specs differing only in Key/defaults canonicalize differently:\n%+v\n%+v",
			base.Canonical(), other.Canonical())
	}

	// Fields that do change the outcome must survive.
	changed := base
	changed.Seed = 8
	if reflect.DeepEqual(base.Canonical(), changed.Canonical()) {
		t.Error("seed change must change the canonical spec")
	}

	// Canonical is idempotent.
	c := base.Canonical()
	if !reflect.DeepEqual(c, c.Canonical()) {
		t.Error("Canonical is not idempotent")
	}
}

// probeCounter is a Checkpointer that never has a prefix to offer and counts
// how often the engine asks it to resume and to bank.
type probeCounter struct {
	mu            sync.Mutex
	probes, saves int
}

func (c *probeCounter) ResumeSpanned(RunSpec, func() (workload.Program, error), *obs.Span) (*gpu.GPU, workload.Program, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probes++
	return nil, nil, 0, false
}

func (c *probeCounter) Checkpoint(RunSpec, *gpu.GPU, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.saves++
}

// TestRunnerCheckpointerOptsBatchIn: holding a Checkpointer is what opts a
// run into checkpoint-assisted execution — a Runner's batch and a single
// ExecuteSpanned alike are probed and banked, with statistics identical to
// the cold run's.
func TestRunnerCheckpointerOptsBatchIn(t *testing.T) {
	specs := figureSpecs(1_000, 500)[:4]
	plain, err := (&Runner{Workers: 2}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	cp := &probeCounter{}
	assisted, err := (&Runner{Workers: 2, Checkpointer: cp}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if cp.probes != len(specs) || cp.saves < len(specs) {
		t.Errorf("Runner with a Checkpointer: %d resume probes, %d saves for %d specs; want every spec probed and its warmup banked",
			cp.probes, cp.saves, len(specs))
	}
	if !reflect.DeepEqual(plain, assisted) {
		t.Error("checkpoint-assisted batch changed the statistics")
	}

	one := &probeCounter{}
	stats, err := ExecuteSpanned(specs[0], one, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.probes != 1 || one.saves < 1 {
		t.Errorf("ExecuteSpanned with a Checkpointer: %d resume probes, %d saves; want the spec probed and its warmup banked",
			one.probes, one.saves)
	}
	if !reflect.DeepEqual(plain[0].Stats, stats) {
		t.Error("checkpoint-assisted ExecuteSpanned changed the statistics")
	}
}

// ExampleRunner demonstrates the declarative sweep pattern.
func ExampleRunner() {
	w, _ := workload.ByAbbr("VA")
	specs := []RunSpec{{
		Key: "VA/shared", Workloads: []workload.Spec{w},
		Config: tinyCfg(config.LLCShared), Seed: 1, MeasureCycles: 1_000,
	}}
	r := &Runner{Workers: 1}
	results, err := r.Run(context.Background(), specs)
	if err != nil {
		panic(err)
	}
	fmt.Println(results[0].Key, results[0].Stats.Instructions > 0)
	// Output: VA/shared true
}
