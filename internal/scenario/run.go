package scenario

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/sweep"
)

// RunOptions controls one scenario execution.
type RunOptions struct {
	// Exec executes the declared batch; nil means the zero sweep.Runner
	// (see sweep.Executor). It must compute: a store-backed executor would
	// answer the determinism gate's second pass from cache and prove nothing.
	Exec sweep.Executor
	// Scale overrides the level-derived run length when non-nil.
	Scale *Scale
}

// Report is the outcome of one scenario run.
type Report struct {
	Name  string
	Level Level
	// Runs is the number of declared specs (the determinism gate re-executes
	// them but does not add to this count).
	Runs int
	// Violations lists every failed invariant; empty means the scenario
	// passed.
	Violations []string
	Elapsed    time.Duration
}

// OK reports whether the scenario passed all invariants.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Format renders the report as the one-block text form paperfigs prints.
func (r Report) Format() string {
	var b strings.Builder
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	fmt.Fprintf(&b, "%-28s %s  %d runs, determinism-checked  %.1fs  %s\n",
		r.Name, r.Level, r.Runs, r.Elapsed.Seconds(), status)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    - %s\n", v)
	}
	return b.String()
}

// Run executes the scenario: Prepare, declare the batch, execute it, check
// the generic stat invariants plus the scenario's own Check hook and
// fingerprint stability, and — the determinism gate — execute the batch again
// and require byte-identical statistics.
//
// The returned error reports infrastructure failure (a run that could not
// execute); invariant violations are data, reported in the Report.
func (sc Scenario) Run(ctx context.Context, opts RunOptions) (Report, error) {
	start := time.Now()
	rep := Report{Name: sc.Name, Level: sc.Level}
	if err := sc.Validate(); err != nil {
		return rep, err
	}

	scale := sc.Level.Scale()
	if opts.Scale != nil {
		scale = *opts.Scale
	}
	dir, err := os.MkdirTemp("", "scenario-"+sc.Name+"-*")
	if err != nil {
		return rep, fmt.Errorf("scenario %s: scratch dir: %w", sc.Name, err)
	}
	defer os.RemoveAll(dir)
	env := &Env{Scale: scale, Dir: dir}

	if sc.Prepare != nil {
		if err := sc.Prepare(env); err != nil {
			return rep, fmt.Errorf("scenario %s: prepare: %w", sc.Name, err)
		}
	}
	specs := sc.Specs(env)
	rep.Runs = len(specs)
	if len(specs) == 0 {
		return rep, fmt.Errorf("scenario %s: declares no runs", sc.Name)
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Key] {
			return rep, fmt.Errorf("scenario %s: duplicate run key %q", sc.Name, s.Key)
		}
		seen[s.Key] = true
	}

	exec := opts.Exec
	if exec == nil {
		exec = &sweep.Runner{}
	}
	results, err := exec.Run(ctx, specs)
	if err != nil {
		return rep, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}

	for i, res := range results {
		for _, v := range Invariants(specs[i], res.Stats) {
			rep.Violations = append(rep.Violations, fmt.Sprintf("run %q: %s", res.Key, v))
		}
		rep.Violations = append(rep.Violations, fingerprintViolations(specs[i])...)
	}
	if sc.Check != nil {
		rep.Violations = append(rep.Violations, sc.Check(env, results)...)
	}

	again, err := exec.Run(ctx, specs)
	if err != nil {
		return rep, fmt.Errorf("scenario %s: determinism re-run: %w", sc.Name, err)
	}
	for i := range results {
		if !statsEqual(results[i].Stats, again[i].Stats) {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"run %q: statistics differ between two identical invocations", results[i].Key))
		}
	}

	rep.Elapsed = time.Since(start)
	return rep, nil
}

// ByName looks up a catalog entry.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// ByLevel returns the catalog entries of one level, in catalog order.
func ByLevel(l Level) []Scenario {
	var out []Scenario
	for _, sc := range Catalog() {
		if sc.Level == l {
			out = append(out, sc)
		}
	}
	return out
}

// UpToLevel returns the catalog entries at or below the given level.
func UpToLevel(l Level) []Scenario {
	var out []Scenario
	for _, sc := range Catalog() {
		if sc.Level <= l {
			out = append(out, sc)
		}
	}
	return out
}
