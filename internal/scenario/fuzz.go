package scenario

import (
	"fmt"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/simstore"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzCase is one property-based test case decoded from fuzzer-controlled
// bytes: a random (but always valid) workload mix, LLC organization, and the
// cross-cutting behaviours to exercise on top of the plain run.
type FuzzCase struct {
	// Specs is the workload mix: one spec runs as a single generator, two run
	// as a space-partitioned multi-program pair.
	Specs []workload.Spec
	// Mode is the LLC organization of the run's config.
	Mode config.LLCMode
	// AppModes, when non-empty, assigns a static per-application LLC view
	// (only generated for two-program runs on non-adaptive configs, the
	// combination gpu.SetAppModes accepts).
	AppModes []config.LLCMode
	Seed     int64
	// TraceRoundTrip additionally records the run's op stream and replays it,
	// requiring replayed statistics identical to the recorded run's.
	TraceRoundTrip bool
	// MixedTrace additionally co-executes Specs[0] as a live generator with a
	// trace player replaying the recorded stream, through
	// workload.NewMultiProgramMixed (implies a recording; only meaningful
	// with TraceRoundTrip).
	MixedTrace bool
	// CheckpointResume additionally executes the run checkpoint-assisted
	// against a scratch store — once banking its warmup/kernel-boundary
	// snapshots, once resuming from them — requiring both passes to reproduce
	// the plain run's statistics byte for byte (save→restore mid-run is part
	// of the simulator's determinism contract).
	CheckpointResume bool
}

// Fuzz run length: long enough to fill caches past warmup reset, short
// enough that one case (up to five simulations) stays in the tens of
// milliseconds.
const (
	fuzzMeasureCycles = 600
	fuzzWarmupCycles  = 200
)

// MicroConfig is the smallest legal GPU the fuzzer simulates on: every
// structural knob at its floor (two clusters of two SMs, two MCs with two
// 8 KiB slices each — only four LLC sets per slice, so the adaptive
// controller's ATD sampling is clamped to the edge).
func MicroConfig(mode config.LLCMode) config.Config {
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
	cfg.ATDSampledSets = 4 // == sets per slice; the baseline 8 would not fit
	cfg.ProfileWindowCycles = 200
	cfg.LLCMode = mode
	return cfg
}

// byteReader consumes fuzz input one byte at a time, yielding zeros once the
// input is exhausted so every input — including the empty one — decodes to a
// complete case.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// pick returns a value in [0, n).
func (r *byteReader) pick(n int) int { return int(r.byte()) % n }

// frac returns a fraction in [0, 1] with 1/255 granularity.
func (r *byteReader) frac() float64 { return float64(r.byte()) / 255 }

// CaseFromBytes decodes arbitrary bytes into a FuzzCase. Every field is
// clamped into its valid range during decoding, so the properties checked by
// FuzzCase.Check are genuine invariants of the simulator — a failure is a
// simulator bug, never a malformed input.
func CaseFromBytes(data []byte) FuzzCase {
	r := &byteReader{data: data}
	var c FuzzCase

	nspecs := 1 + r.pick(2) // MicroConfig has two SMs per cluster: at most two apps
	for i := 0; i < nspecs; i++ {
		s := workload.Spec{
			Name:         fmt.Sprintf("Fuzz workload %d", i),
			Abbr:         fmt.Sprintf("FZ%d", i),
			Class:        workload.Neutral,
			SharedDataMB: []float64{0.125, 0.25, 0.5, 1, 2, 4}[r.pick(6)],
			Kernels:      1 + r.pick(3),
			Pattern: []workload.Pattern{
				workload.PatternUniformShared,
				workload.PatternLockstepSweep,
				workload.PatternPrivateStream,
			}[r.pick(3)],
			MemRatio:              0.05 + 0.9*r.frac(),
			SharedFraction:        r.frac(),
			WriteFraction:         r.frac(),
			FrontierJitterLines:   r.pick(32),
			TrailingReuseFraction: 0.5 * r.frac(),
			TrailingWindowLines:   1 + r.pick(16)*64,
			PrivateKBPerCTA:       r.pick(64),
			ALULatency:            1 + r.pick(16),
		}
		if r.pick(2) == 1 {
			s.KernelInstrs = uint64(100 + r.pick(16)*25)
		}
		c.Specs = append(c.Specs, s)
	}

	c.Mode = []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive}[r.pick(3)]
	c.Seed = int64(1 + r.pick(16))
	if nspecs == 2 && c.Mode != config.LLCAdaptive && r.pick(2) == 1 {
		// Per-app static views: the only combination SetAppModes accepts.
		statics := []config.LLCMode{config.LLCShared, config.LLCPrivate}
		c.AppModes = []config.LLCMode{statics[r.pick(2)], statics[r.pick(2)]}
	}
	c.TraceRoundTrip = r.pick(2) == 1
	c.MixedTrace = c.TraceRoundTrip && r.pick(2) == 1
	// Decoded last so the committed corpus keeps its meaning: older entries
	// exhaust their bytes before this read and decode to false.
	c.CheckpointResume = r.pick(2) == 1
	return c
}

// Check runs the case and returns every violated invariant (empty = pass).
// dir is a scratch directory for recorded traces. The properties:
//
//  1. the decoded workloads are valid and the run executes;
//  2. same-seed determinism: two executions carry byte-identical statistics;
//  3. the cross-cutting stat invariants (Invariants) hold;
//  4. the simstore fingerprint is stable and Key-independent;
//  5. (TraceRoundTrip) replaying the recorded trace reproduces the recorded
//     run's statistics exactly;
//  6. (MixedTrace) a generator+player mix through NewMultiProgramMixed runs
//     deterministically with both applications live.
func (c FuzzCase) Check(dir string) []string {
	var v []string
	for _, s := range c.Specs {
		if err := s.Validate(); err != nil {
			v = append(v, fmt.Sprintf("decoder produced an invalid spec: %v", err))
		}
	}
	if len(v) > 0 {
		return v
	}

	spec := sweep.RunSpec{
		Key:           "fuzz",
		Workloads:     c.Specs,
		Config:        MicroConfig(c.Mode),
		AppModes:      c.AppModes,
		Seed:          c.Seed,
		MeasureCycles: fuzzMeasureCycles,
		WarmupCycles:  fuzzWarmupCycles,
	}
	first, err := sweep.Execute(spec)
	if err != nil {
		return []string{fmt.Sprintf("run failed: %v", err)}
	}
	second, err := sweep.Execute(spec)
	if err != nil {
		return []string{fmt.Sprintf("repeated run failed: %v", err)}
	}
	if !statsEqual(first, second) {
		v = append(v, "same-seed determinism broken: two identical runs differ")
	}
	v = append(v, Invariants(spec, first)...)
	v = append(v, fingerprintViolations(spec)...)

	if c.CheckpointResume {
		mgr, err := openManager(dir)
		if err != nil {
			return append(v, err.Error())
		}
		v = append(v, checkCheckpointResume(mgr, spec, first)...)
	}

	if !c.TraceRoundTrip {
		return v
	}
	path := filepath.Join(dir, "fuzz.trace")
	recSpec := spec
	recSpec.RecordPath = path
	recorded, err := sweep.Execute(recSpec)
	if err != nil {
		return append(v, fmt.Sprintf("recording run failed: %v", err))
	}
	if !statsEqual(first, recorded) {
		v = append(v, "recording is not transparent: recorded run differs from plain run")
	}
	replaySpec := sweep.RunSpec{
		Key:           "fuzz-replay",
		TracePath:     path,
		Config:        spec.Config,
		AppModes:      c.AppModes,
		MeasureCycles: fuzzMeasureCycles,
		WarmupCycles:  fuzzWarmupCycles,
	}
	replayed, err := sweep.Execute(replaySpec)
	if err != nil {
		return append(v, fmt.Sprintf("replay run failed: %v", err))
	}
	if !statsEqual(recorded, replayed) {
		v = append(v, "replay-equals-record broken: replayed statistics differ from the recorded run")
	}

	if c.MixedTrace {
		v = append(v, c.checkMixed(path)...)
	}
	return v
}

// openManager opens a checkpoint manager over a scratch store under dir.
func openManager(dir string) (*checkpoint.Manager, error) {
	store, err := simstore.Open(filepath.Join(dir, "ckpt-store"), simstore.Options{})
	if err != nil {
		return nil, fmt.Errorf("checkpoint store: %w", err)
	}
	return checkpoint.NewManager(store), nil
}

// checkCheckpointResume executes spec checkpoint-assisted against mgr twice:
// the first pass runs cold and banks the warmup and kernel-boundary
// snapshots, the second resumes from the furthest banked prefix. Both must
// reproduce the plain run's statistics exactly, the second must actually hit
// the store, and the manager must swallow no errors.
func checkCheckpointResume(mgr *checkpoint.Manager, spec sweep.RunSpec, plain gpu.RunStats) []string {
	var v []string
	before := mgr.ManagerStats()
	banking, err := sweep.ExecuteSpanned(spec, mgr, nil)
	if err != nil {
		return []string{fmt.Sprintf("checkpoint-banking run failed: %v", err)}
	}
	if !statsEqual(plain, banking) {
		v = append(v, "checkpointing is not transparent: banking run differs from plain run")
	}
	banked := mgr.ManagerStats()
	resumed, err := sweep.ExecuteSpanned(spec, mgr, nil)
	if err != nil {
		return append(v, fmt.Sprintf("checkpoint-resumed run failed: %v", err))
	}
	if !statsEqual(plain, resumed) {
		v = append(v, "checkpoint resume broken: resumed statistics differ from the plain run")
	}
	after := mgr.ManagerStats()
	if after.Hits == banked.Hits {
		v = append(v, "checkpoint resume dead: second execution never restored a snapshot")
	}
	if banked.Saves == before.Saves || banked.Bytes == before.Bytes {
		v = append(v, "checkpoint banking dead: first execution stored no snapshots")
	}
	if n := after.Errors - before.Errors; n > 0 {
		v = append(v, fmt.Sprintf("checkpoint manager swallowed %d errors on a healthy store", n))
	}
	return v
}

// checkMixed co-executes Specs[0] as a live generator with a player replaying
// the recorded trace, twice, requiring determinism and both apps live.
func (c FuzzCase) checkMixed(tracePath string) []string {
	cfg := MicroConfig(c.Mode)
	run := func() (gpu.RunStats, error) {
		gen, err := workload.NewGenerator(c.Specs[0], cfg, c.Seed)
		if err != nil {
			return gpu.RunStats{}, fmt.Errorf("mixed generator: %w", err)
		}
		player, err := trace.NewPlayer(tracePath, cfg, trace.EOFLoop)
		if err != nil {
			return gpu.RunStats{}, fmt.Errorf("mixed player: %w", err)
		}
		defer player.Close()
		mp, err := workload.NewMultiProgramMixed([]workload.Program{gen, player}, cfg)
		if err != nil {
			return gpu.RunStats{}, fmt.Errorf("mixed multi-program: %w", err)
		}
		g, err := gpu.New(cfg, mp)
		if err != nil {
			return gpu.RunStats{}, fmt.Errorf("mixed gpu: %w", err)
		}
		g.Warmup(fuzzWarmupCycles)
		return g.Run(fuzzMeasureCycles, 1), nil
	}

	first, err := run()
	if err != nil {
		return []string{err.Error()}
	}
	second, err := run()
	if err != nil {
		return []string{fmt.Sprintf("repeated mixed run: %v", err)}
	}
	var v []string
	if !statsEqual(first, second) {
		v = append(v, "mixed generator+player run is not deterministic")
	}
	if len(first.AppInstructions) != 2 {
		v = append(v, fmt.Sprintf("mixed run has %d application slots, want 2", len(first.AppInstructions)))
	}
	for app, instr := range first.AppInstructions {
		if instr == 0 {
			v = append(v, fmt.Sprintf("mixed run application %d issued no instructions", app))
		}
	}
	return v
}
