package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/simstore"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// gpuSizes fixes one single-GPU round: one Table-2 workload on one LLC
// organization, a warm-up, then Segments kernel invocations of SegCycles
// simulated cycles each. Segments are short so that a run takes hundreds of
// timed samples, each brief enough to fall between two disturbances of a
// shared host.
type gpuSizes struct {
	Abbr      string
	Mode      config.LLCMode
	Warmup    uint64
	SegCycles uint64
	Segments  int
	// BankEvery is the number of kernels between two snapshots of the banked
	// phase.
	BankEvery int
	// Resumes is how many times a round restores a GPU from the last banked
	// snapshot; the last of them runs on to the end of the window.
	Resumes int
}

func (z gpuSizes) cycles() uint64 { return z.SegCycles * uint64(z.Segments) }

// benchConfig is the GPU every workload simulates: the paper's Table-1
// baseline with the adaptive controller's windows scaled to the shortened
// runs the way exp.DefaultOptions scales them.
func benchConfig(mode config.LLCMode, profileWindow int) config.Config {
	cfg := config.Baseline()
	cfg.LLCMode = mode
	cfg.ProfileWindowCycles = profileWindow
	cfg.EpochCycles = 1_000_000
	return cfg
}

func (z gpuSizes) spec(seed int64) (sweep.RunSpec, error) {
	w, ok := workload.ByAbbr(z.Abbr)
	if !ok {
		return sweep.RunSpec{}, fmt.Errorf("unknown Table-2 workload %q", z.Abbr)
	}
	return sweep.RunSpec{
		Key:           fmt.Sprintf("%s/%v", z.Abbr, z.Mode),
		Workloads:     []workload.Spec{w},
		Config:        benchConfig(z.Mode, 2_000),
		Seed:          seed,
		MeasureCycles: z.cycles(),
		WarmupCycles:  z.Warmup,
		Kernels:       z.Segments,
	}, nil
}

// runSegments drives the measured window and returns the host seconds of
// each kernel segment. atBoundary, when non-nil, runs at the end of every
// segment but the last, outside every segment's time.
func runSegments(g *gpu.GPU, z gpuSizes, sp *obs.Span, atBoundary func(m int)) (gpu.RunStats, []float64) {
	segs := make([]float64, 0, z.Segments)
	seg := sp.Child("kernel-1")
	last := time.Now()
	stats := g.RunCheckpointed(z.cycles(), z.Segments, func(m int) {
		segs = append(segs, time.Since(last).Seconds())
		seg.End()
		if atBoundary != nil {
			atBoundary(m)
		}
		seg = sp.Child(fmt.Sprintf("kernel-%d", m+1))
		last = time.Now()
	})
	segs = append(segs, time.Since(last).Seconds())
	seg.End()
	return stats, segs
}

// gpuRound is one round of a single-GPU workload. Three identically built
// and warmed GPUs run the same measured window three ways:
//
//	serial   the default cycle loop                         -> main_*
//	sharded  the same loop on shardCount() worker shards    -> per-layer only
//	banked   the serial loop banking a snapshot through
//	         checkpoint.Manager every BankEvery kernels     -> write_per_s
//
// and further GPUs are restored from the last banked snapshot (-> alt_per_s),
// one of which runs on to the end. All four must return byte-identical
// statistics. The sharded loop's speed is no end-to-end metric: two threads
// meeting at a spin barrier every cycle go as fast as the host happens to
// place its two cores, which moved its floor by a seventh from run to run.
func gpuRound(e *env, z gpuSizes, o *roundOut) error {
	spec, err := z.spec(e.seed)
	if err != nil {
		return err
	}
	root := e.thread("gpu " + spec.Key)
	defer root.End()
	mem := markMem()
	dig := newDigest()

	newProg := func() (workload.Program, error) {
		return workload.NewGenerator(spec.Workloads[0], spec.Config, spec.Seed)
	}
	// build is the set-up of one timed phase: generator + gpu.New + warm-up.
	build := func(phase *obs.Span) (*gpu.GPU, error) {
		sp := phase.Child("setup")
		defer sp.End()
		var g *gpu.GPU
		var err error
		dNew := timed(sp, "gpu.New", func() {
			var prog workload.Program
			if prog, err = newProg(); err == nil {
				g, err = gpu.New(spec.Config, prog)
			}
		})
		if err != nil {
			return nil, err
		}
		dWarm := timed(sp, "warmup", func() { g.Warmup(z.Warmup) })
		quiesce()
		o.setup.add("", 1, (dNew + dWarm).Seconds())
		o.obs("gpu.new_ms", ms(dNew))
		o.obs("gpu.warmup_ms", ms(dWarm))
		return g, nil
	}

	// serial
	phase := root.Child("serial")
	g, err := build(phase)
	if err != nil {
		return err
	}
	segMem := markMem()
	serial, segs := runSegments(g, z, phase, nil)
	_, objects := segMem.since()
	phase.End()
	o.ops++
	o.checkStats(spec, serial)
	dig.add(serial)
	serialS := sum(segs)
	var rates []float64
	for _, s := range segs {
		rates = append(rates, float64(z.SegCycles)/s)
		o.main.add("", float64(z.SegCycles), s)
	}
	o.obs("gpu.host_us_per_cycle", serialS*1e6/float64(z.cycles()))
	o.obs("gpu.host_ns_per_instr", ratio(serialS*1e9, float64(serial.Instructions)))
	o.obs("gpu.segment_cps_min", minOf(rates))
	o.obs("gpu.segment_cps_max", maxOf(rates))
	o.obs("gpu.allocs_per_kcycle", objects/(float64(z.cycles())/1e3))
	observeSimulated(o, serial)

	// sharded
	phase = root.Child("sharded")
	if g, err = build(phase); err != nil {
		return err
	}
	shards := useShards(g, shardCount())
	o.notes["shards"] = fmt.Sprint(shards)
	spins0, cyc0 := barrierSpins(shards), gpu.ReadTelemetry().ShardedCycles
	sharded, shardedSegs := runSegments(g, z, phase, nil)
	phase.End()
	o.ops++
	o.sameStats(spec.Key+": sharded vs serial", serial, sharded)
	o.obs("gpu.shard_speedup", ratio(quiet(segs), quiet(shardedSegs)))
	o.obs("gpu.barrier_spins_per_cycle",
		ratio(float64(barrierSpins(shards)-spins0), float64(gpu.ReadTelemetry().ShardedCycles-cyc0)))

	// banked
	phase = root.Child("banked")
	dir, err := e.tempDir("gpu-store-*")
	if err != nil {
		return err
	}
	store, err := simstore.Open(dir, simstore.Options{})
	if err != nil {
		return err
	}
	mgr := checkpoint.NewManager(store)
	if g, err = build(phase); err != nil {
		return err
	}
	// The write path costs a kernel segment plus its share of a snapshot:
	// the snapshot's time is spread over the BankEvery segments it follows.
	snapshot := func(m int) {
		if m%z.BankEvery != 0 {
			return
		}
		sp := phase.Child("snapshot")
		t0 := time.Now()
		mgr.Checkpoint(spec, g, m)
		o.write.add("snapshot", 0, time.Since(t0).Seconds()/float64(z.BankEvery))
		sp.End()
	}
	snapshot(0) // the warm-up prefix, as sweep.ExecuteWith banks it
	banked, segs := runSegments(g, z, phase, snapshot)
	phase.End()
	o.ops++
	o.sameStats(spec.Key+": banked vs serial", serial, banked)
	for _, s := range segs {
		o.write.add("segment", float64(z.SegCycles), s)
	}
	lastBanked := (z.Segments - 1) / z.BankEvery * z.BankEvery
	if st := mgr.ManagerStats(); st.Saves != uint64(lastBanked/z.BankEvery+1) || st.Errors != 0 {
		o.fail("%s: banked %d snapshots with %d errors, want %d and 0", spec.Key, st.Saves, st.Errors, lastBanked/z.BankEvery+1)
	}
	if e.traced() {
		t0 := time.Now()
		var state gpu.State
		o.obs("gpu.savestate_ms", ms(timed(root, "SaveState", func() { state, err = g.SaveState() })))
		if err != nil {
			return err
		}
		prog, err := newProg()
		if err != nil {
			return err
		}
		o.obs("gpu.restorestate_ms", ms(timed(root, "RestoreState", func() { _, err = gpu.Restore(spec.Config, prog, state) })))
		if err != nil {
			return err
		}
		o.probing += time.Since(t0)
	}

	// resumed: the read path of a checkpointed run is Manager.Resume (index
	// probe, GetBlob, Decode, program build, gpu.New, RestoreState), and the
	// furthest banked snapshot must continue to the same result.
	phase = root.Child("resumed")
	for i := 0; i < z.Resumes; i++ {
		quiesce()
		t0 := time.Now()
		rg, _, at, ok := mgr.Resume(spec, newProg)
		o.alt.add("", 1, time.Since(t0).Seconds())
		o.ops++
		if !ok || at != lastBanked {
			o.fail("%s: resume found boundary %d (ok=%v), want %d", spec.Key, at, ok, lastBanked)
		} else if i == z.Resumes-1 {
			o.sameStats(spec.Key+": resumed vs serial", serial, rg.ResumeRun(z.cycles(), z.Segments, nil))
		}
	}
	phase.End()

	mb, _ := mem.since()
	o.allocMB = append(o.allocMB, mb)
	o.closeRound(dig)
	return nil
}

// observeSimulated records the simulated-machine counters of one run:
// simulated time, exact for a given seed.
func observeSimulated(o *roundOut, s gpu.RunStats) {
	cyc := float64(s.Cycles)
	o.obs("sm.ipc", s.IPC)
	o.obs("sm.l1_miss_rate", s.L1MissRate)
	o.obs("sm.avg_load_latency", s.SM.AvgLoadLatency())
	o.obs("noc.flits_per_cycle", ratio(float64(s.NoC.FlitsInjected), cyc))
	o.obs("noc.avg_latency", s.NoC.AvgLatency())
	o.obs("llc.accesses_per_cycle", ratio(float64(s.LLC.Accesses), cyc))
	o.obs("llc.miss_rate", s.LLCMissRate)
	o.obs("llc.response_rate", s.ResponseRate)
	o.obs("dram.requests_per_cycle", ratio(float64(s.DRAM.Requests), cyc))
	o.obs("dram.row_hit_rate", s.DRAM.RowHitRate())
	o.obs("dram.avg_queueing", s.DRAM.AvgQueueingDelay())
	o.obs("core.reconfigs", float64(s.ReconfigCount))
	o.obs("core.stall_cycles", float64(s.ReconfigStall))
	o.obs("core.gated_fraction", s.GatedFraction)
}
