package scenario

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sweep"
)

// TestCatalogDeclares checks the catalog-entry contract over every recipe:
// valid, uniquely and consistently named, and sized to the acceptance floor.
func TestCatalogDeclares(t *testing.T) {
	cat := Catalog()
	if len(cat) < 10 {
		t.Fatalf("catalog has %d scenarios, want >= 10", len(cat))
	}
	seen := map[string]bool{}
	for _, sc := range cat {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if want := fmt.Sprintf("l%d-", int(sc.Level)); !strings.HasPrefix(sc.Name, want) {
			t.Errorf("%s: name not prefixed with its level (%s)", sc.Name, want)
		}
		if sc.Level > Level3 {
			t.Errorf("%s: catalog entries stay within levels 1-3; higher levels rescale via RunOptions", sc.Name)
		}
	}
}

// TestCatalogCoversAllAxes checks each workload axis has at least one recipe.
func TestCatalogCoversAllAxes(t *testing.T) {
	for _, axis := range Axes() {
		found := false
		for _, sc := range Catalog() {
			if sc.HasAxis(axis) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no scenario exercises axis %q", axis)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for l := Level1; l <= Level5; l++ {
		if got, ok := ParseLevel(l.String()); !ok || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, ok)
		}
		if got, ok := ParseLevel(fmt.Sprintf("%d", int(l))); !ok || got != l {
			t.Errorf("ParseLevel(%d) = %v, %v", int(l), got, ok)
		}
	}
	if _, ok := ParseLevel("level6"); ok {
		t.Error("ParseLevel accepted level6")
	}
	if _, ok := ParseLevel(""); ok {
		t.Error("ParseLevel accepted the empty string")
	}
}

// TestScaleRescale: overrides replace only the fields they name, seed 0
// overrides like any other seed, and no override keeps the level's scale.
func TestScaleRescale(t *testing.T) {
	level, zero := Level2.Scale(), int64(0)
	if got, want := level.Rescale(12_345, 678, &zero), (Scale{MeasureCycles: 12_345, WarmupCycles: 678, Seed: 0}); got != want {
		t.Errorf("rescale gave %+v, want %+v", got, want)
	}
	if got := level.Rescale(0, 0, nil); got != level {
		t.Errorf("no overrides rescaled %+v to %+v", level, got)
	}
	if got := level.Rescale(0, 678, nil); got.MeasureCycles != level.MeasureCycles || got.WarmupCycles != 678 || got.Seed != level.Seed {
		t.Errorf("a warmup override gave %+v", got)
	}
}

// TestLevelScalesGrow checks run length strictly grows with level — the
// property that makes levels a cost ordering.
func TestLevelScalesGrow(t *testing.T) {
	for l := Level2; l <= Level5; l++ {
		lo, hi := (l - 1).Scale(), l.Scale()
		if hi.MeasureCycles <= lo.MeasureCycles {
			t.Errorf("%s measure cycles (%d) not above %s (%d)",
				l, hi.MeasureCycles, l-1, lo.MeasureCycles)
		}
	}
}

func TestCatalogLookups(t *testing.T) {
	sc, ok := ByName("l1-trace-roundtrip")
	if !ok || sc.Name != "l1-trace-roundtrip" {
		t.Fatalf("ByName(l1-trace-roundtrip) = %v, %v", sc.Name, ok)
	}
	if _, ok := ByName("no-such"); ok {
		t.Error("ByName accepted an unknown name")
	}
	for _, sc := range ByLevel(Level1) {
		if sc.Level != Level1 {
			t.Errorf("ByLevel(1) returned %s (%s)", sc.Name, sc.Level)
		}
	}
	if n1, n12 := len(ByLevel(Level1))+len(ByLevel(Level2)), len(UpToLevel(Level2)); n1 != n12 {
		t.Errorf("UpToLevel(2) has %d entries, want %d", n12, n1)
	}
	if len(UpToLevel(Level5)) != len(Catalog()) {
		t.Error("UpToLevel(5) must return the whole catalog")
	}
}

// runCatalogLevel executes every recipe of one level, determinism gate
// included, failing the test on any invariant violation.
func runCatalogLevel(t *testing.T, level Level) {
	t.Helper()
	for _, sc := range ByLevel(level) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := sc.Run(context.Background(), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("invariant violations:\n%s", rep.Format())
			}
			if rep.Runs == 0 {
				t.Fatalf("report incomplete: %+v", rep)
			}
		})
	}
}

// TestRunLevel1Catalog is the CI smoke gate: every level-1 recipe runs
// un-skipped, determinism-checked, with zero violations.
func TestRunLevel1Catalog(t *testing.T) { runCatalogLevel(t, Level1) }

func TestRunLevel2Catalog(t *testing.T) {
	if testing.Short() {
		t.Skip("level-2 scenarios skipped in -short mode")
	}
	runCatalogLevel(t, Level2)
}

func TestRunLevel3Catalog(t *testing.T) {
	if testing.Short() {
		t.Skip("level-3 scenarios skipped in -short mode")
	}
	runCatalogLevel(t, Level3)
}

// TestRunRejectsDuplicateKeys checks the runner refuses a recipe whose specs
// collide, since positional result checking depends on distinct keys.
func TestRunRejectsDuplicateKeys(t *testing.T) {
	sc := Scenario{
		Name: "l1-dup", Description: "duplicate keys", Level: Level1,
		Axes: []Axis{AxisSharing},
		Specs: func(e *Env) []sweep.RunSpec {
			s := catalogSpec("same", SmokeConfig(0), e.Scale, mustByAbbr("VA"))
			return []sweep.RunSpec{s, s}
		},
	}
	if _, err := sc.Run(context.Background(), RunOptions{}); err == nil {
		t.Fatal("duplicate run keys must be rejected")
	}
}

// recordingExec answers every batch with sentinel statistics and records the
// batches it was handed, simulating nothing.
type recordingExec struct{ batches [][]sweep.RunSpec }

func (r *recordingExec) Run(_ context.Context, specs []sweep.RunSpec) ([]sweep.Result, error) {
	r.batches = append(r.batches, specs)
	out := make([]sweep.Result, len(specs))
	for i, s := range specs {
		out[i] = sweep.Result{Index: i, Key: s.Key, Stats: gpu.RunStats{Cycles: 42}}
	}
	return out, nil
}

// TestRunUsesOnlyTheGivenExecutor: RunOptions.Exec is the one seam to an
// engine. The executor handed in sees the declared batch twice — once, and
// once more for the determinism gate — and every result the Check hook sees
// came from it, so no local Runner ran beside it.
func TestRunUsesOnlyTheGivenExecutor(t *testing.T) {
	fromExec := 0
	sc := Scenario{
		Name: "l1-seam", Description: "executor seam", Level: Level1,
		Axes: []Axis{AxisSharing},
		Specs: func(e *Env) []sweep.RunSpec {
			return []sweep.RunSpec{
				catalogSpec("a", SmokeConfig(0), e.Scale, mustByAbbr("VA")),
				catalogSpec("b", SmokeConfig(0), e.Scale, mustByAbbr("MM")),
			}
		},
		Check: func(_ *Env, results []sweep.Result) []string {
			for _, res := range results {
				if res.Stats.Cycles == 42 {
					fromExec++
				}
			}
			return nil
		},
	}
	rec := &recordingExec{}
	rep, err := sc.Run(context.Background(), RunOptions{Exec: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) != 2 {
		t.Errorf("executor saw %d batches, want 2 (the run and its determinism re-run)", len(rec.batches))
	}
	for _, b := range rec.batches {
		if len(b) != 2 || b[0].Key != "a" || b[1].Key != "b" {
			t.Errorf("executor saw batch %v, want the declared specs a, b", b)
		}
	}
	if fromExec != rep.Runs {
		t.Errorf("%d of %d results came from the given executor", fromExec, rep.Runs)
	}
}

// TestReportFormat spot-checks the text form paperfigs prints.
func TestReportFormat(t *testing.T) {
	rep := Report{Name: "l1-x", Level: Level1, Runs: 2}
	out := rep.Format()
	if !strings.Contains(out, "l1-x") || !strings.Contains(out, "ok") ||
		!strings.Contains(out, "determinism-checked") {
		t.Errorf("Format() = %q", out)
	}
	rep.Violations = []string{"boom"}
	if out := rep.Format(); !strings.Contains(out, "FAIL") || !strings.Contains(out, "boom") {
		t.Errorf("failing Format() = %q", out)
	}
}

// TestInvariantsPinSchedulerSlots: a real result (LUD on the smoke GPU,
// memory-bound, so most scheduler slots stall) keeps scheduler-slot
// conservation, and an SM tick lost, or credited without its stall
// outcomes, breaks it.
func TestInvariantsPinSchedulerSlots(t *testing.T) {
	spec := catalogSpec("slots", SmokeConfig(0), Level1.Scale(), mustByAbbr("LUD"))
	st, err := sweep.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := Invariants(spec, st); len(v) != 0 {
		t.Fatalf("a real run violates invariants: %v", v)
	}
	lost := st
	lost.SM.Cycles--
	lost.SM.StallNoReadyWarp -= uint64(spec.Config.SchedulersPerSM)
	if v := Invariants(spec, lost); len(v) != 1 || !strings.Contains(v[0], "SM.Cycles =") {
		t.Errorf("a lost tick: violations %v, want the SM.Cycles one", v)
	}
	uncredited := st
	uncredited.SM.StallStructural--
	if v := Invariants(spec, uncredited); len(v) != 1 || !strings.Contains(v[0], "SM.StallStructural") {
		t.Errorf("a tick credited without its stall: violations %v, want the slot one", v)
	}
}
