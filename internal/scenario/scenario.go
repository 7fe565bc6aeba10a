// Package scenario is the named, versioned catalog of workload recipes the
// simulator's correctness story is gated on.
//
// The determinism guarantees built up by the earlier subsystems — golden
// figures, serial-vs-parallel byte-identical sweeps, content-addressed result
// caching — are only as strong as the workload space they are exercised on.
// This package makes that space an enumerable artifact: every entry of
// Catalog() is a named recipe that declares
//
//   - a Level (level1 smoke for CI -short budgets through level5 exhaustive
//     sweeps, organized like RVS's levels/rvs_level_N test recipes),
//   - the workload Axes it exercises (sharing, locality, divergence,
//     multi-program), and
//   - the runs to execute plus the invariants their statistics must satisfy.
//
// Running a scenario (Scenario.Run) executes its declared sweep.RunSpec batch
// on a sweep.Executor — the one local engine paperfigs -scenarios configures —
// then checks every result against the cross-cutting stat invariants
// (Invariants), the scenario's own Check hook and fingerprint stability under
// internal/simstore, and executes the batch a second time: the determinism
// gate, which requires byte-identical statistics.
//
// The same invariants back FuzzScenario (fuzz.go): a property-based fuzzer
// that decodes arbitrary bytes into random workload.Spec / RunSpec
// combinations — including multi-program pairs and checkpoint resumes — and
// requires every one of them to simulate deterministically and sanely.
package scenario

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sweep"
)

// Level grades a scenario by cost and coverage, mirroring RVS's five-level
// test recipes: level1 runs on every CI push (seconds, -short safe), level2/3
// in the full test suite (tens of seconds), level4 at figure scale, level5 as
// an exhaustive sweep that only makes sense on a cluster.
type Level int

const (
	Level1 Level = 1 + iota
	Level2
	Level3
	Level4
	Level5
)

func (l Level) String() string { return fmt.Sprintf("level%d", int(l)) }

// ParseLevel parses "level1".."level5" (and bare "1".."5").
func ParseLevel(s string) (Level, bool) {
	for l := Level1; l <= Level5; l++ {
		if s == l.String() || s == fmt.Sprintf("%d", int(l)) {
			return l, true
		}
	}
	return 0, false
}

// Scale is the per-level run length. Scenarios read it from their Env so one
// recipe can be stretched (e.g. by paperfigs -cycles) without editing the
// catalog.
type Scale struct {
	MeasureCycles uint64
	WarmupCycles  uint64
	Seed          int64
}

// Rescale applies the non-zero overrides on top of s (a level-derived
// scale); it is the one place a requested scale stretches a recipe. Seed is a
// pointer because 0 is a legal seed: nil keeps s.Seed.
func (s Scale) Rescale(cycles, warmup uint64, seed *int64) Scale {
	if cycles > 0 {
		s.MeasureCycles = cycles
	}
	if warmup > 0 {
		s.WarmupCycles = warmup
	}
	if seed != nil {
		s.Seed = *seed
	}
	return s
}

// Scale returns the default run length for scenarios of this level.
func (l Level) Scale() Scale {
	switch l {
	case Level1:
		return Scale{MeasureCycles: 2_000, WarmupCycles: 500, Seed: 1}
	case Level2:
		return Scale{MeasureCycles: 6_000, WarmupCycles: 1_500, Seed: 1}
	case Level3:
		return Scale{MeasureCycles: 20_000, WarmupCycles: 5_000, Seed: 1}
	case Level4:
		return Scale{MeasureCycles: 60_000, WarmupCycles: 20_000, Seed: 1}
	default:
		return Scale{MeasureCycles: 200_000, WarmupCycles: 40_000, Seed: 1}
	}
}

// Axis names one dimension of the workload space a scenario exercises. Every
// axis has at least one catalog entry (TestCatalogCoversAllAxes enforces it).
type Axis string

const (
	AxisSharing      Axis = "sharing"
	AxisLocality     Axis = "locality"
	AxisDivergence   Axis = "divergence"
	AxisMultiProgram Axis = "multi-program"
)

// Axes lists every axis, in report order.
func Axes() []Axis {
	return []Axis{AxisSharing, AxisLocality, AxisDivergence, AxisMultiProgram}
}

// Env is the execution context handed to a scenario's Specs/Check hooks:
// the run scale.
type Env struct {
	Scale Scale
}

// Scenario is one named workload recipe of the catalog.
type Scenario struct {
	// Name is the catalog key ("l1-uniform-shared"); unique, kebab-case,
	// prefixed with its level.
	Name string
	// Description is the one-line purpose shown by -list-scenarios.
	Description string
	Level       Level
	// Axes names the workload-space dimensions the recipe exercises.
	Axes []Axis
	// Specs declares the scenario's runs. Keys must be unique.
	Specs func(*Env) []sweep.RunSpec
	// Check optionally verifies scenario-specific invariants over the
	// results (indexed like the specs) and returns violation messages.
	Check func(*Env, []sweep.Result) []string
}

// HasAxis reports whether the scenario declares the given axis.
func (s Scenario) HasAxis(a Axis) bool {
	for _, x := range s.Axes {
		if x == a {
			return true
		}
	}
	return false
}

// Validate checks the catalog-entry contract (naming, level, axes, hooks).
func (s Scenario) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: missing name")
	case s.Level < Level1 || s.Level > Level5:
		return fmt.Errorf("scenario %s: level %d out of range", s.Name, s.Level)
	case len(s.Axes) == 0:
		return fmt.Errorf("scenario %s: no axes declared", s.Name)
	case s.Specs == nil:
		return fmt.Errorf("scenario %s: no Specs hook", s.Name)
	case s.Description == "":
		return fmt.Errorf("scenario %s: missing description", s.Name)
	}
	known := map[Axis]bool{}
	for _, a := range Axes() {
		known[a] = true
	}
	for _, a := range s.Axes {
		if !known[a] {
			return fmt.Errorf("scenario %s: unknown axis %q", s.Name, a)
		}
	}
	return nil
}

// SmokeConfig is the scaled-down GPU used by level-1/2/3 recipes: the
// baseline architecture shrunk to 4 SMs in 2 clusters so a full catalog run
// takes seconds, while still exercising every component (both NoC stages,
// multiple LLC slices per MC, the adaptive controller's ATD sampling).
func SmokeConfig(mode config.LLCMode) config.Config {
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
	cfg.LLCMode = mode
	return cfg
}
