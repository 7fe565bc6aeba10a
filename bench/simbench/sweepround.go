package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/simstore"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sweepSizes fixes one Figure-11-shaped batch: every listed Table-2 workload
// on the shared, private and adaptive LLC.
type sweepSizes struct {
	Abbrs           []string
	Measure, Warmup uint64
	// Kernels is the number of kernel invocations of every run: one snapshot
	// at warm-up end and one per boundary are banked, and a resumed run
	// restarts from the last.
	Kernels int
	// History is how many unrelated blobs the store already holds when the
	// batch arrives: a store with a past, so that loading its index is work.
	// They are written once per run (newSweepStore), not once per round.
	History int
	// Reopens is how many times the banked store is re-opened before the
	// resume pass; each is one set-up sample.
	Reopens int
}

func (z sweepSizes) specs(seed int64) ([]sweep.RunSpec, error) {
	var specs []sweep.RunSpec
	for _, abbr := range z.Abbrs {
		w, ok := workload.ByAbbr(abbr)
		if !ok {
			return nil, fmt.Errorf("unknown Table-2 workload %q", abbr)
		}
		for _, mode := range []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive} {
			specs = append(specs, sweep.RunSpec{
				Key:       fmt.Sprintf("%s/%v", abbr, mode),
				Workloads: []workload.Spec{w},
				// A 500-cycle profiling window keeps the controller deciding
				// inside the shortest kernel of the shortened runs.
				Config:        benchConfig(mode, 500),
				Seed:          seed,
				MeasureCycles: z.Measure,
				WarmupCycles:  z.Warmup,
				Kernels:       z.Kernels,
			})
		}
	}
	return specs, nil
}

// passResult is one pass of the batch through sweep.Runner.
type passResult struct {
	wall   time.Duration
	stats  map[string]gpu.RunStats
	runS   map[string]float64    // host seconds of each run, by key
	traces map[string]*obs.Trace // per run key; empty unless traced
	// allocMB and allocK are the bytes and the thousands of objects the pass
	// allocated.
	allocMB, allocK float64
}

// runPass executes specs through sweep.Runner. Run latency is taken between
// the Runner's two public hooks: TraceFor fires just before a run starts and
// OnProgress just after it ends.
func runPass(e *env, pass string, specs []sweep.RunSpec, workers int, cp sweep.Checkpointer) (passResult, error) {
	res := passResult{stats: map[string]gpu.RunStats{}, runS: map[string]float64{}, traces: map[string]*obs.Trace{}}
	var mu sync.Mutex
	started := map[string]time.Time{}
	r := sweep.Runner{
		Workers:      workers,
		Checkpointer: cp,
		TraceFor: func(key string) *obs.Span {
			mu.Lock()
			defer mu.Unlock()
			started[key] = time.Now()
			if !e.traced() {
				return nil
			}
			tr := e.traces.New("sweep " + pass + " " + key)
			res.traces[key] = tr
			return tr.Start("run")
		},
		OnProgress: func(p sweep.Progress) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			res.runS[p.Key] = now.Sub(started[p.Key]).Seconds()
		},
	}
	quiesce()
	mem := markMem()
	t0 := time.Now()
	results, err := r.Run(context.Background(), specs)
	res.wall = time.Since(t0)
	var objects float64
	res.allocMB, objects = mem.since()
	res.allocK = objects / 1e3
	if err != nil {
		return res, fmt.Errorf("%s pass: %w", pass, err)
	}
	for _, rr := range results {
		res.stats[rr.Key] = rr.Stats
	}
	return res, nil
}

// into adds the pass's runs to a timed path: one unit of work per spec.
func (p passResult) into(t *timing) {
	for key, s := range p.runS {
		t.add(key, 1, s)
	}
}

func (p passResult) runMS() []float64 {
	var out []float64
	for _, s := range p.runS {
		out = append(out, s*1e3)
	}
	return out
}

// walkSpans visits every span of a rendered span tree.
func walkSpans(nodes []*obs.SpanJSON, f func(*obs.SpanJSON)) {
	for _, n := range nodes {
		f(n)
		walkSpans(n.Children, f)
	}
}

// spanMS collects the durations of every span called name across traces.
func spanMS(traces map[string]*obs.Trace, name string) []float64 {
	var out []float64
	for _, tr := range traces {
		walkSpans(tr.Snapshot(), func(s *obs.SpanJSON) {
			if s.Name == name {
				out = append(out, float64(s.DurUS)/1e3)
			}
		})
	}
	return out
}

// sweepRound is one round of the sweep workload: the same batch three times
// through a one-worker sweep.Runner.
//
//	plain   no checkpointer, what paperfigs does            -> main_*
//	bank    fresh manager on a store that holds none of the
//	        batch's snapshots, the checkpoint write path    -> write_per_s
//	resume  re-opened store, fresh manager, the read path    -> alt_per_s
//
// The three passes must agree run by run and every resume run must restore a
// snapshot. One worker, because with `nproc` workers the wall-clock of a pass
// did not repeat within a tenth on the 2-vCPU reference host; the traced run
// adds a `parallel` pass on every core and reports the pool's speed-up per
// layer instead (bench/README.md).
func sweepRound(e *env, z sweepSizes, dir string, o *roundOut) error {
	specs, err := z.specs(e.seed)
	if err != nil {
		return err
	}
	mem := markMem()
	dig := newDigest()
	n := float64(len(specs))

	plain, err := runPass(e, "plain", specs, 1, nil)
	if err != nil {
		return err
	}
	o.ops += len(specs)
	for _, s := range specs {
		o.checkStats(s, plain.stats[s.Key])
		dig.add(plain.stats[s.Key])
	}
	plain.into(o.main)

	banked := make([]sweep.RunSpec, len(specs))
	for i, s := range specs {
		s.Checkpoint = true
		banked[i] = s
	}
	store, err := simstore.Open(dir, simstore.Options{})
	if err != nil {
		return err
	}
	before := store.StoreStats().TotalBytes
	mgr := checkpoint.NewManager(store)
	bank, err := runPass(e, "bank", banked, 1, mgr)
	if err != nil {
		return err
	}
	o.ops += len(specs)
	bank.into(o.write)
	if st := mgr.ManagerStats(); st.Errors != 0 || st.Saves == 0 {
		o.fail("bank pass: %d snapshots saved, %d errors", st.Saves, st.Errors)
	}
	o.obs("simstore.disk_mb", float64(store.StoreStats().TotalBytes-before)/(1<<20))

	// Set-up of the resume pass: re-open the banked store (index load) and
	// hand it to a fresh manager.
	for i := 0; i < z.Reopens; i++ {
		t0 := time.Now()
		if store, err = simstore.Open(dir, simstore.Options{}); err != nil {
			return err
		}
		mgr = checkpoint.NewManager(store)
		o.setup.add("", 1, time.Since(t0).Seconds())
	}
	resume, err := runPass(e, "resume", banked, 1, mgr)
	if err != nil {
		return err
	}
	o.ops += len(specs)
	resume.into(o.alt)
	hits := mgr.ManagerStats().Hits
	if hits != uint64(len(specs)) {
		o.fail("resume pass: %d of %d runs restored a snapshot", hits, len(specs))
	}
	for _, s := range specs {
		o.sameStats(s.Key+": bank vs plain", plain.stats[s.Key], bank.stats[s.Key])
		o.sameStats(s.Key+": resume vs plain", plain.stats[s.Key], resume.stats[s.Key])
	}

	o.obs("checkpoint.hit_ratio", float64(hits)/n)
	o.obs("sweep.plain_alloc_mb", plain.allocMB)
	o.obs("sweep.bank_alloc_mb", bank.allocMB)
	o.obs("sweep.resume_alloc_mb", resume.allocMB)
	o.obs("sweep.plain_allocs_k", plain.allocK)
	o.obs("sweep.bank_allocs_k", bank.allocK)
	o.obs("sweep.resume_allocs_k", resume.allocK)
	runMS := plain.runMS()
	o.obs("sweep.run_ms_p50", median(runMS))
	o.obs("sweep.run_ms_max", maxOf(runMS))
	if e.traced() {
		parallel, err := runPass(e, "parallel", specs, e.cpus, nil)
		if err != nil {
			return err
		}
		o.probing += parallel.wall
		o.ops += len(specs)
		for _, s := range specs {
			o.sameStats(s.Key+": parallel vs plain", plain.stats[s.Key], parallel.stats[s.Key])
		}
		speedup := plain.wall.Seconds() / parallel.wall.Seconds()
		o.obs("sweep.parallel_wall_ms", ms(parallel.wall))
		o.obs("sweep.parallel_speedup", speedup)
		o.obs("sweep.worker_utilisation", speedup/float64(e.cpus))
		o.obs("sweep.build_program_ms", median(spanMS(plain.traces, "build-program")))
		o.obs("checkpoint.bank_ms", median(spanMS(bank.traces, "checkpoint-save")))
		probe, restore := spanMS(resume.traces, "checkpoint-probe"), spanMS(resume.traces, "checkpoint-restore")
		o.obs("checkpoint.probe_ms", median(probe))
		o.obs("checkpoint.resume_ms", median(probe)+median(restore))
		o.obs("checkpoint.cycles_skipped_share", skippedShare(banked, resume.traces))
	}

	mb, _ := mem.since()
	o.allocMB = append(o.allocMB, mb)
	o.closeRound(dig)
	return forgetBatch(store, banked)
}

// newSweepStore creates the store a run's sweep rounds bank into, holding
// z.History unrelated blobs.
func newSweepStore(e *env, z sweepSizes) (string, error) {
	dir, err := e.tempDir("sweep-store-*")
	if err != nil {
		return "", err
	}
	store, err := simstore.Open(dir, simstore.Options{})
	if err != nil {
		return "", err
	}
	history := make([]byte, 1024)
	for i := 0; i < z.History; i++ {
		if err := store.PutBlob(sha256.Sum256([]byte(fmt.Sprintf("history-%d", i))), history); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// forgetBatch drops the snapshots one round banked, so the next round's bank
// pass finds the store as the first did.
func forgetBatch(store *simstore.Store, specs []sweep.RunSpec) error {
	for _, s := range specs {
		key, err := checkpoint.WarmupKey(s)
		if err != nil {
			return err
		}
		store.DropBlob(key)
		for k := 1; k < s.Canonical().Kernels; k++ {
			if key, err = checkpoint.KernelKey(s, k); err != nil {
				return err
			}
			store.DropBlob(key)
		}
	}
	return nil
}

// skippedShare is the share of the batch's simulated cycles (warm-up plus
// measured window) the resume pass did not have to simulate, read from the
// at_kernel annotation of each run's checkpoint-probe span.
func skippedShare(specs []sweep.RunSpec, traces map[string]*obs.Trace) float64 {
	var skipped, total float64
	for _, s := range specs {
		total += float64(s.WarmupCycles + s.MeasureCycles)
		tr := traces[s.Key]
		if tr == nil {
			continue
		}
		walkSpans(tr.Snapshot(), func(sp *obs.SpanJSON) {
			if sp.Name != "checkpoint-probe" || sp.Attrs["hit"] != true {
				return
			}
			at, _ := sp.Attrs["at_kernel"].(int)
			kernelLen := s.MeasureCycles / uint64(s.Canonical().Kernels)
			skipped += float64(s.WarmupCycles + uint64(at)*kernelLen)
		})
	}
	return ratio(skipped, total)
}
