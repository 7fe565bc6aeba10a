package scenario

import (
	"fmt"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/simstore"
	"repro/internal/sweep"
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
	// CheckpointResume additionally executes the run checkpoint-assisted
	// against a scratch store — once banking its warmup/kernel-boundary
	// snapshots, once resuming from them — requiring both passes to reproduce
	// the plain run's statistics byte for byte (save→restore mid-run is part
	// of the simulator's determinism contract).
	CheckpointResume bool
}

// Fuzz run length: long enough to fill caches past warmup reset, short
// enough that one case (up to four simulations) stays in the tens of
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
			// Drawn and discarded, so the committed corpus keeps
			// decoding to the same cases.
			r.pick(16)
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
	if r.pick(2) == 1 {
		// The trace round-trip and mixed-trace picks of an earlier decoder:
		// drawn and discarded, so the committed corpus keeps decoding to
		// the same cases.
		r.pick(2)
	}
	// Decoded last so the committed corpus keeps its meaning: older entries
	// exhaust their bytes before this read and decode to false.
	c.CheckpointResume = r.pick(2) == 1
	return c
}

// Check runs the case and returns every violated invariant (empty = pass).
// The properties:
//
//  1. the decoded workloads are valid and the run executes;
//  2. same-seed determinism: two executions carry byte-identical statistics;
//  3. the cross-cutting stat invariants (Invariants) hold;
//  4. the simstore fingerprint is stable and Key-independent;
//  5. (CheckpointResume) banking and resuming checkpoints reproduces the
//     plain run's statistics exactly.
func (c FuzzCase) Check() []string {
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
		mgr, done, err := openManager()
		if err != nil {
			return append(v, err.Error())
		}
		defer done()
		v = append(v, checkCheckpointResume(mgr, spec, first)...)
	}
	return v
}

// openManager opens a checkpoint manager over a fresh scratch store; done
// removes the store.
func openManager() (mgr *checkpoint.Manager, done func(), err error) {
	dir, err := os.MkdirTemp("", "scenario-ckpt-*")
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint store: %w", err)
	}
	done = func() { os.RemoveAll(dir) }
	store, err := simstore.Open(dir, simstore.Options{})
	if err != nil {
		done()
		return nil, nil, fmt.Errorf("checkpoint store: %w", err)
	}
	return checkpoint.NewManager(store), done, nil
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
