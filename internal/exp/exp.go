// Package exp contains the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 6) on the simulated GPU.
//
// The evaluation is one grid of runs that its figures slice, and the package
// is shaped the same way: every registry entry (FigureJob) declares the runs
// it needs as sweep.RunSpec values and builds one Table over their
// statistics; Table.Format prints the rows/series the paper reports, and
// Regenerate produces a selection of figures over one run set, simulating
// each distinct run once. Absolute values differ from the paper (the
// substrate is a from-scratch simulator, not GPGPU-Sim on the authors'
// traces), but the shape of every result — which organization wins, by
// roughly what factor, and where the crossovers lie — is expected to match.
package exp

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Options controls the scale of the experiments and names the engine that
// executes them.
//
// Scaling vs. the paper: the paper simulates billion-instruction benchmark
// traces with a 50K-cycle profiling window and 1M-cycle epochs for the
// adaptive controller. This harness runs synthetic workloads for tens of
// thousands of cycles, so ProfileWindowCycles is scaled down proportionally
// (2K at the default 60K-cycle measurement) while the epoch stays at the
// paper's 1M (config.Baseline's EpochCycles) — at harness scale an epoch
// therefore never expires mid-run and adaptation is driven by the profiling
// window and kernel boundaries, which is the regime the paper's figures
// probe. Scaling MeasureCycles up (e.g.
// via paperfigs -cycles) moves the harness closer to the paper's operating
// point at a linear cost in wall-clock time.
type Options struct {
	// MeasureCycles is the number of simulated cycles per run after warm-up.
	MeasureCycles uint64
	// WarmupCycles is excluded from all statistics.
	WarmupCycles uint64
	// Seed drives the workload generators.
	Seed int64
	// ProfileWindowCycles configures the adaptive controller's profiling
	// window, scaled down with the shortened simulations (the paper uses 50K
	// on billion-instruction runs; see the Options doc).
	ProfileWindowCycles int

	// Exec executes a figure's declared runs; nil means the zero
	// sweep.Runner (see sweep.Executor). cmd/paperfigs hands in the one
	// Runner its flags describe, or with -server a client.Pool, which submits
	// each batch to a simd cluster. Execution never changes figure text:
	// per-run seeding makes every engine's statistics identical.
	Exec sweep.Executor
}

// FigureOptions is the one description of a requested scale: the paperfigs
// flags fill it in, and Options is the only code that turns it into figure
// harness scale, whichever engine then executes the runs. Zero values keep
// the defaults. Seed is a pointer because 0 is a legal seed distinct from
// "use the default": nil keeps the default seed.
type FigureOptions struct {
	Quick  bool
	Cycles uint64
	Warmup uint64
	Seed   *int64
}

// Options resolves the figure harness scale: DefaultOptions (or QuickOptions
// with Quick set) with the non-zero fields applied on top. The caller adds
// the engine (Options.Exec).
func (o FigureOptions) Options() Options {
	opt := DefaultOptions()
	if o.Quick {
		opt = QuickOptions()
	}
	if o.Cycles > 0 {
		opt.MeasureCycles = o.Cycles
	}
	if o.Warmup > 0 {
		opt.WarmupCycles = o.Warmup
	}
	if o.Seed != nil {
		opt.Seed = *o.Seed
	}
	return opt
}

// DefaultOptions returns the scale used by the committed experiment results.
func DefaultOptions() Options {
	return Options{
		MeasureCycles:       60_000,
		WarmupCycles:        20_000,
		Seed:                1,
		ProfileWindowCycles: 2_000,
	}
}

// QuickOptions returns a reduced scale for unit tests and smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.MeasureCycles = 20_000
	o.WarmupCycles = 8_000
	return o
}

// baseConfig builds the GPU configuration for a given LLC mode.
func (o Options) baseConfig(mode config.LLCMode) config.Config {
	cfg := config.Baseline()
	cfg.LLCMode = mode
	cfg.ProfileWindowCycles = o.ProfileWindowCycles
	return cfg
}

// runSpec builds the declarative sweep unit for one or more co-running
// workloads on the given configuration.
func (o Options) runSpec(key string, cfg config.Config, specs ...workload.Spec) sweep.RunSpec {
	return sweep.RunSpec{
		Key:           key,
		Workloads:     specs,
		Config:        cfg,
		Seed:          o.Seed,
		MeasureCycles: o.MeasureCycles,
		WarmupCycles:  o.WarmupCycles,
	}
}

// modeSpec builds the sweep unit for one workload on a plain baseline
// configuration with the given LLC mode, keyed "<abbr>/<mode>".
func (o Options) modeSpec(w workload.Spec, mode config.LLCMode) sweep.RunSpec {
	return o.runSpec(modeKey(w.Abbr, mode), o.baseConfig(mode), w)
}

// modeKey is the result key used by the per-mode figure sweeps.
func modeKey(abbr string, mode config.LLCMode) string {
	return abbr + "/" + mode.String()
}

// runAll hands declared runs to the executor and returns their statistics
// positionally (results[i] belongs to specs[i]). It is the single way a
// declared batch reaches an engine.
func (o Options) runAll(specs []sweep.RunSpec) ([]gpu.RunStats, error) {
	exec := o.Exec
	if exec == nil {
		exec = &sweep.Runner{}
	}
	results, err := exec.Run(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	if len(results) != len(specs) {
		return nil, fmt.Errorf("exp: executor returned %d results for %d runs", len(results), len(specs))
	}
	stats := make([]gpu.RunStats, len(results))
	for i, res := range results {
		stats[i] = res.Stats
	}
	return stats, nil
}

// hmean is a harmonic mean that tolerates empty input (returns 0).
func hmean(vals []float64) float64 {
	m, err := metrics.HarmonicMean(vals)
	if err != nil {
		return 0
	}
	return m
}

// norm returns v/base, or 0 when the base is 0.
func norm(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}
