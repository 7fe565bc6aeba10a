// Package sweep is the parallel experiment engine of the repository.
//
// Every evaluation in this repo — the paper's figures, the examples, and
// ad-hoc design-space sweeps — decomposes into independent simulation runs:
// one workload (or a multi-program combination) on one GPU configuration for
// a fixed number of cycles. The simulator itself is single-threaded, so a
// sweep of N runs is embarrassingly parallel across N goroutines.
//
// A run's program source is either a synthetic workload specification (one
// for single-program, several for multi-program co-execution) or a recorded
// memory trace (RunSpec.TracePath; see internal/trace), and any run can
// transparently capture its op stream to a trace file (RunSpec.RecordPath).
//
// A sweep is declared as a slice of RunSpec values and executed by a Runner,
// which fans the runs across a worker pool (GOMAXPROCS workers by default).
// Each run builds its own workload generator from its own seed and its own
// GPU instance, so no state is shared between runs and the results are
// byte-identical regardless of worker count or scheduling order: Runner.Run
// with Workers=1 and Workers=N return equal Result slices for the same
// specs. Results are delivered positionally (results[i] belongs to
// specs[i]), never in completion order.
//
// Failure of one run cancels the dispatch of not-yet-started runs and is
// reported as the error of the lowest-index failed run; runs already in
// flight complete normally. Cancelling the caller's context likewise stops
// dispatch (the simulator has no internal preemption points, so in-flight
// runs finish before Run returns).
package sweep

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunSpec declares one independent simulation run: which workload(s) execute
// on which configuration, for how long, and under which seed. It is a pure
// value — building one performs no work — so figure harnesses and sweeps
// first declare every run they need and then hand the batch to a Runner.
type RunSpec struct {
	// Key identifies the run inside its batch; collectors use it to look up
	// results. Keys should be unique within one Runner.Run call.
	Key string
	// Workloads is the benchmark(s) to execute. One entry is a
	// single-program run; several entries co-execute as a multi-program
	// workload (paper §6.3).
	Workloads []workload.Spec
	// Config is the full GPU configuration for the run.
	Config config.Config
	// AppModes optionally assigns each application its own LLC view in
	// multi-program mode (the paper's adaptive multi-program configuration,
	// Figure 9). Empty means all applications use Config.LLCMode.
	AppModes []config.LLCMode
	// Seed drives the workload generator(s); runs with equal specs and
	// equal seeds produce identical statistics.
	Seed int64
	// MeasureCycles and WarmupCycles mirror exp.Options: warm-up cycles are
	// simulated first and excluded from all statistics.
	MeasureCycles uint64
	WarmupCycles  uint64
	// Kernels is the number of kernel invocations the measured window is
	// split into; 0 uses the largest Kernels value among Workloads (or, for
	// trace replay, the kernel count recorded in the trace header).
	Kernels int

	// TracePath, when non-empty, replays a recorded memory trace (see
	// internal/trace) as the program source instead of Workloads; the two
	// are mutually exclusive. Replay under the recording's configuration
	// reproduces the recorded run exactly; under a different configuration
	// the recorded warp streams are remapped onto the new geometry.
	TracePath string
	// TraceLoop selects the trace end-of-file policy: false parks exhausted
	// warps (drain), true rewinds the trace and replays it again.
	TraceLoop bool
	// RecordPath, when non-empty, captures the run's per-warp op stream to a
	// trace file that can later be replayed via TracePath.
	RecordPath string

	// Checkpoint is unread: the Checkpointer handed to ExecuteSpanned (or set
	// on a Runner) is what opts a run into checkpoint-assisted execution. The
	// field stays only because the frozen benchmark harness under bench/
	// still writes it; Canonical clears it, so it never reaches a
	// fingerprint.
	Checkpoint bool
}

// Canonical returns the spec reduced to the fields that determine its
// simulation outcome, with derived defaults resolved. Two specs with equal
// Canonical() values produce identical RunStats, regardless of how they were
// written down:
//
//   - Key is cleared: it names the run within a batch and never reaches the
//     simulator.
//   - RecordPath is cleared: capturing a trace is a side effect that leaves
//     the measured statistics untouched (see Execute).
//   - Checkpoint is cleared: it is unread (see the field).
//   - Config is normalized, so a zero derived field and its explicitly
//     spelled-out default compare equal.
//   - A zero Kernels is resolved to the workload-derived default, so "let it
//     default" and "set it to the default" compare equal. (Trace replays keep
//     Kernels as written: their default lives in the trace header, which
//     Canonical does not open.)
//
// Canonical is the identity under which internal/simstore fingerprints runs
// and the simd job queue deduplicates them.
func (s RunSpec) Canonical() RunSpec {
	s.Key = ""
	s.RecordPath = ""
	s.Checkpoint = false
	s.Config = s.Config.Normalize()
	if s.Kernels == 0 && len(s.Workloads) > 0 {
		s.Kernels = s.kernels()
	}
	return s
}

// kernels resolves the kernel count, defaulting to the maximum over the
// workloads as the multi-program harness did.
func (s RunSpec) kernels() int {
	if s.Kernels > 0 {
		return s.Kernels
	}
	k := 1
	for _, w := range s.Workloads {
		if w.Kernels > k {
			k = w.Kernels
		}
	}
	return k
}

// Checkpointer lets an executor resume runs from stored state prefixes and
// bank new prefixes as runs pass them. internal/checkpoint provides the
// content-addressed implementation; the interface lives here so the sweep
// engine stays free of storage dependencies.
type Checkpointer interface {
	// ResumeSpanned tries to restore the longest stored prefix for spec,
	// recording its probe and restore phases as child spans of sp (a nil sp
	// records none). newProg builds a fresh program for each restore attempt
	// (a failed restore may leave a program partially fast-forwarded, so
	// attempts never share one). On success it returns the restored GPU, the
	// program driving it, and the kernel boundary the snapshot was taken at
	// (0 = warmup end).
	ResumeSpanned(spec RunSpec, newProg func() (workload.Program, error), sp *obs.Span) (g *gpu.GPU, prog workload.Program, atKernel int, ok bool)
	// Checkpoint stores the GPU's current state as the prefix ending at
	// kernel boundary atKernel (0 = warmup end). Failures are swallowed:
	// checkpointing is an accelerator, never a correctness dependency.
	Checkpoint(spec RunSpec, g *gpu.GPU, atKernel int)
}

// BuildProgram constructs the workload program a spec declares: a trace
// player, a single generator, or a multi-program combination. The returned
// player is non-nil only for trace replays (it aliases the program) and must
// be closed by the caller.
func BuildProgram(s RunSpec) (workload.Program, *trace.Player, error) {
	switch {
	case s.TracePath != "" && len(s.Workloads) > 0:
		return nil, nil, fmt.Errorf("TracePath and Workloads are mutually exclusive")
	case s.TracePath != "":
		policy := trace.EOFDrain
		if s.TraceLoop {
			policy = trace.EOFLoop
		}
		player, err := trace.NewPlayer(s.TracePath, s.Config.Normalize(), policy)
		if err != nil {
			return nil, nil, err
		}
		return player, player, nil
	case len(s.Workloads) == 0:
		return nil, nil, fmt.Errorf("no workloads")
	case len(s.Workloads) == 1:
		prog, err := workload.NewGenerator(s.Workloads[0], s.Config, s.Seed)
		return prog, nil, err
	default:
		prog, err := workload.NewMultiProgram(s.Workloads, s.Config, s.Seed)
		return prog, nil, err
	}
}

// resolveKernels resolves the kernel count for execution, falling back to the
// trace header for replays that leave Kernels unset.
func (s RunSpec) resolveKernels(player *trace.Player) int {
	kernels := s.kernels()
	if s.Kernels == 0 && player != nil && player.Header().Kernels > 0 {
		kernels = player.Header().Kernels
	}
	return kernels
}

// Execute runs one spec to completion on the calling goroutine and returns
// its statistics: ExecuteSpanned without a checkpointer or a span.
func Execute(s RunSpec) (gpu.RunStats, error) {
	return ExecuteSpanned(s, nil, nil)
}

// ExecuteSpanned is the one place where a declarative RunSpec is turned into
// program, GPU, warm-up and measured window; the Runner parallelizes it.
//
// A non-nil cp opts the run into checkpoint-assisted execution: it first
// tries to resume from the longest stored state prefix and banks one at
// warmup end and at every kernel boundary it passes. A run that records a
// trace (RecordPath) runs cold whatever cp is: a run restored past its
// warmup could not re-record the skipped prefix, so the trace would be
// silently partial.
//
// The run's lifecycle is recorded as child spans of sp: checkpoint
// probe/restore, program build, warmup, the measure window with one segment
// per kernel invocation, and checkpoint saves. A nil sp records nothing
// (spans are nil-safe). Neither checkpoints nor spans affect the returned
// statistics: they are byte-identical to a cold, untraced run's.
func ExecuteSpanned(s RunSpec, cp Checkpointer, sp *obs.Span) (gpu.RunStats, error) {
	fail := func(err error) (gpu.RunStats, error) {
		return gpu.RunStats{}, fmt.Errorf("sweep: run %q: %w", s.Key, err)
	}
	if s.RecordPath != "" {
		cp = nil
	}

	var (
		g        *gpu.GPU
		prog     workload.Program
		atKernel int
		resumed  bool
	)
	if cp != nil {
		g, prog, atKernel, resumed = cp.ResumeSpanned(s, func() (workload.Program, error) {
			prog, _, err := BuildProgram(s)
			return prog, err
		}, sp)
	}
	if !resumed {
		build := sp.Child("build-program")
		var err error
		prog, _, err = BuildProgram(s)
		build.End()
		if err != nil {
			return fail(err)
		}
	}
	player, _ := prog.(*trace.Player)
	if player != nil {
		defer player.Close()
	}
	kernels := s.resolveKernels(player)

	var rec *trace.Recorder
	if !resumed {
		var err error
		if g, rec, err = s.start(prog, kernels, cp, sp); err != nil {
			return fail(err)
		}
	}
	stats := s.measure(g, kernels, atKernel, cp, sp)
	if rec != nil {
		if err := rec.Close(); err != nil {
			os.Remove(s.RecordPath)
			return fail(err)
		}
	}
	if player != nil {
		if err := player.Err(); err != nil {
			return fail(err)
		}
	}
	return stats, nil
}

// start builds the GPU of a cold run around prog and warms it up, banking
// the warmup prefix with a non-nil cp. With a RecordPath it first wraps prog
// so the run records its op stream to a replayable trace file; the returned
// recorder must be closed once the run ends.
func (s RunSpec) start(prog workload.Program, kernels int, cp Checkpointer, sp *obs.Span) (*gpu.GPU, *trace.Recorder, error) {
	var rec *trace.Recorder
	if s.RecordPath != "" {
		names := make([]string, len(s.Workloads))
		for i, w := range s.Workloads {
			names[i] = w.Abbr
		}
		cfg := s.Config.Normalize()
		hdr := trace.HeaderFor(cfg, names, s.Seed, kernels, s.MeasureCycles, s.WarmupCycles)
		// Preserve multi-program SM-to-app assignment from any program that
		// carries one (a MultiProgram, or a Player re-recording a
		// multi-program trace) — the same interface gpu.New detects.
		if a, ok := prog.(interface {
			AppOf(sm int) int
			Apps() int
		}); ok && a.Apps() > 1 {
			hdr.Apps = a.Apps()
			hdr.SMApp = make([]int, cfg.NumSMs)
			for sm := range hdr.SMApp {
				hdr.SMApp[sm] = a.AppOf(sm)
			}
		}
		w, err := trace.Create(s.RecordPath, hdr)
		if err != nil {
			return nil, nil, err
		}
		rec = trace.NewRecorder(prog, w)
		prog = rec
	}
	// A failed recorded run must not leave a well-formed (but empty or
	// partial) trace behind: a later replay of it would silently succeed
	// with a bogus workload.
	fail := func(err error) (*gpu.GPU, *trace.Recorder, error) {
		if rec != nil {
			rec.Close()
			os.Remove(s.RecordPath)
		}
		return nil, nil, err
	}

	g, err := gpu.New(s.Config, prog)
	if err != nil {
		return fail(err)
	}
	if len(s.AppModes) > 0 {
		if err := g.SetAppModes(s.AppModes); err != nil {
			return fail(err)
		}
	}
	if s.WarmupCycles > 0 {
		warm := sp.Child("warmup")
		warm.Annotate("cycles", s.WarmupCycles)
		g.Warmup(s.WarmupCycles)
		if cp != nil {
			save := warm.Child("checkpoint-save")
			save.Annotate("at_kernel", 0)
			cp.Checkpoint(s, g, 0)
			save.End()
		}
		warm.End()
	}
	return g, rec, nil
}

// measure drives the measured window from kernel boundary atKernel (0 = its
// start), segmenting it per kernel invocation: boundary m closes segment m
// and opens segment m+1, with checkpoint saves spanned in between.
func (s RunSpec) measure(g *gpu.GPU, kernels, atKernel int, cp Checkpointer, sp *obs.Span) gpu.RunStats {
	meas := sp.Child("measure")
	meas.Annotate("cycles", s.MeasureCycles)
	meas.Annotate("kernels", kernels)
	if atKernel > 0 {
		meas.Annotate("resumed_at_kernel", atKernel)
	}
	defer meas.End()
	var seg *obs.Span
	if sp != nil && kernels > 1 {
		seg = meas.Child(fmt.Sprintf("kernel-%d", atKernel+1))
	}
	hook := func(m int) {
		seg.End()
		// A window that kernels does not divide evenly fires one boundary
		// more, a few cycles before it ends; no resume probes past
		// boundary kernels-1, so that one is not banked.
		if cp != nil && m < kernels {
			save := meas.Child("checkpoint-save")
			save.Annotate("at_kernel", m)
			cp.Checkpoint(s, g, m)
			save.End()
		}
		if sp != nil && kernels > 1 {
			seg = meas.Child(fmt.Sprintf("kernel-%d", m+1))
		}
	}
	defer func() { seg.End() }()
	if atKernel > 0 {
		return g.ResumeRun(s.MeasureCycles, kernels, hook)
	}
	return g.RunCheckpointed(s.MeasureCycles, kernels, hook)
}

// Result is the outcome of one RunSpec within a batch.
type Result struct {
	// Index is the position of the spec in the batch handed to Runner.Run.
	Index int
	// Key echoes RunSpec.Key.
	Key string
	// Stats holds the run statistics; it is the zero value if the run
	// failed or was never dispatched due to an earlier failure or
	// cancellation.
	Stats gpu.RunStats
	// Err is the run's own failure, if any.
	Err error
}

// Progress is delivered to Runner.OnProgress after each completed run.
// Callbacks are serialized (never concurrent) but arrive in completion
// order, which under parallel execution is not spec order.
type Progress struct {
	// Done runs out of Total have finished, the most recent being Key.
	Done, Total int
	Key         string
}

// Executor abstracts "run this batch of declared specs": the local
// worker-pool Runner implements it, and so does a remote execution backend
// (a simd daemon routing each spec through its result store and job queue).
// Harnesses written against Executor — notably the figure harnesses in
// internal/exp — run unchanged on either engine. Implementations must honor
// the Runner contract: results are positional, partial results are returned
// on failure, and equal spec batches produce identical results.
//
// Executor is the one seam between a harness and an engine: exp.Options and
// scenario.RunOptions carry an Exec field and nothing else about execution.
// A nil Exec there means the zero Runner (&Runner{}: GOMAXPROCS workers, no
// progress, no checkpoints, no tracing); anything else about how a batch is
// simulated is configured on the Runner (or other Executor) handed in.
type Executor interface {
	Run(ctx context.Context, specs []RunSpec) ([]Result, error)
}

// Runner executes a batch of runs across a worker pool.
type Runner struct {
	// Workers is the pool size: 0 (or negative) uses GOMAXPROCS, 1 forces
	// serial execution in spec order.
	Workers int
	// OnProgress, when non-nil, is invoked after every completed run.
	OnProgress func(Progress)
	// Checkpointer, when non-nil, opts the whole batch into
	// checkpoint-assisted execution: every run resumes from stored state
	// prefixes and banks new ones.
	Checkpointer Checkpointer
	// TraceFor, when non-nil, is asked for a parent span per run (keyed by
	// RunSpec.Key); the run's lifecycle phases are recorded as children and
	// the span is ended when the run finishes. Must be safe for concurrent
	// calls from the worker pool. A nil return disables tracing for that
	// run.
	TraceFor func(key string) *obs.Span
}

var _ Executor = (*Runner)(nil)

// Run executes every spec and returns one Result per spec, positionally.
// The returned error is nil only if every run was dispatched and succeeded;
// on failure it wraps the error of the lowest-index failed run, and on
// caller cancellation it is the context's error. Partial results are always
// returned so callers can inspect what did complete.
func (r *Runner) Run(ctx context.Context, specs []RunSpec) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(specs))
	for i, s := range specs {
		results[i] = Result{Index: i, Key: s.Key}
	}
	if len(specs) == 0 {
		return results, ctx.Err()
	}

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	// runCtx stops the dispatch loop on the first failure without touching
	// the caller's context.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes result writes and OnProgress
		done int
	)
	finish := func(res Result) {
		mu.Lock()
		defer mu.Unlock()
		results[res.Index] = res
		done++
		if r.OnProgress != nil {
			r.OnProgress(Progress{Done: done, Total: len(specs), Key: res.Key})
		}
	}

	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// The dispatch select can race with cancellation and still
				// hand out an index after a failure; re-check here so an
				// aborted batch never starts another expensive simulation.
				if runCtx.Err() != nil {
					continue
				}
				spec := specs[i]
				res := Result{Index: i, Key: spec.Key}
				var sp *obs.Span
				if r.TraceFor != nil {
					sp = r.TraceFor(spec.Key)
				}
				res.Stats, res.Err = ExecuteSpanned(spec, r.Checkpointer, sp)
				sp.End()
				if res.Err != nil {
					cancel()
				}
				finish(res)
			}
		}()
	}

	for i := range specs {
		if runCtx.Err() != nil {
			break
		}
		select {
		case idx <- i:
		case <-runCtx.Done():
		}
	}
	close(idx)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, err
	}
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("sweep: %d/%d runs completed before failure: %w",
				done, len(specs), results[i].Err)
		}
	}
	return results, nil
}
