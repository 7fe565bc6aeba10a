package main

// The metric catalogue. BENCHMARK.json at the repository root repeats the
// names, units, directions and bounds (its schema has no room for the rest);
// TestBenchmarkJSONMatchesCatalogue keeps the two from drifting.

// Workload names.
const (
	wlComputePrivate = "compute-private"
	wlMemoryShared   = "memory-shared"
	wlSweepResume    = "sweep-resume"
	wlServiceMix     = "service-mix"
)

// Where a per-layer metric is measured during a traced run.
const (
	srcGPU     = "gpu-round"     // serial / sharded / checkpointed single-GPU round
	srcSweep   = "sweep-round"   // plain / bank / resume sweep round
	srcService = "service-round" // hit / forward / miss round against three daemons
	srcProbe   = "probe"         // isolated driver fed by the workload's own spec
	srcRun     = "run"           // derived from the traced run as a whole
)

// metricDef declares one metric. Bound is set for end-to-end metrics only;
// Layer, Source, Moves and On for per-layer metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median by which it may worsen
	Time   string  // "host", "simulated" or "" (a count or a size)

	Layer  string
	Source string
	// Moves names the end-to-end metrics this layer metric should move, and
	// On the workloads where that should show. Elsewhere the prediction is
	// "no change".
	Moves []string
	On    []string

	Help string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; what main / alt / write mean on each workload is fixed in
// workloads.go and tabulated in bench/README.md.
//
// Every timing is the quiet time of many short samples (stats.go, quiet),
// not a median: on the few shared cores the benchmark gets, a median moved by
// 20-50 % from one run to the next of the same code while the floor of the
// samples moved by a few (bench/README.md, "Calibration"). The timing bounds
// still sit at the contract's maximum, because what the host does in the
// minutes a later comparison runs cannot be known; tighten them on a host of
// one's own.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Time: "host",
		Help: "set-up before a timed section: generator + gpu.New + warm-up; re-opening the banked store; daemon start + membership convergence + pre-storing the hit set"},
	{Name: "main_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Time: "host",
		Help: "main path, work per host second: simulated cycles (serial loop), sweep runs (plain pass), cached-hit requests"},
	{Name: "main_op_ms", Unit: "ms", Better: "lower", Bound: 0.25, Time: "host",
		Help: "main path, host latency of one operation: a kernel segment, the median spec of the batch, the median request of a batch of cached hits"},
	{Name: "alt_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Time: "host",
		Help: "alternative read path, work per host second: GPUs restored from a banked snapshot, sweep runs (resume pass), requests answered through a peer (forward)"},
	{Name: "write_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Time: "host",
		Help: "write path, work per host second: simulated cycles while banking a snapshot every few kernels, sweep runs (bank pass), cold runs executed, stored and replicated (miss)"},
	{Name: "host_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.08,
		Help: "runtime.MemStats.TotalAlloc over one round, set-up included, so work moved into set-up still shows"},
}

var gpuWorkloads = []string{wlComputePrivate, wlMemoryShared}

// perLayer is measured by the traced run only.
var perLayer = []metricDef{
	// gpu: spans around gpu.New, Warmup, each kernel segment, SaveState, RestoreState.
	{Name: "gpu.new_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "gpu", Source: srcGPU, Moves: []string{"setup_s"}, On: gpuWorkloads},
	{Name: "gpu.warmup_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "gpu", Source: srcGPU, Moves: []string{"setup_s"}, On: gpuWorkloads},
	{Name: "gpu.host_us_per_cycle", Unit: "us", Better: "lower", Time: "host", Layer: "gpu", Source: srcGPU, Moves: []string{"main_per_s", "main_op_ms"}, On: gpuWorkloads},
	{Name: "gpu.host_ns_per_instr", Unit: "ns", Better: "lower", Time: "host", Layer: "gpu", Source: srcGPU, Moves: []string{"main_per_s"}, On: gpuWorkloads},
	{Name: "gpu.segment_cps_min", Unit: "1/s", Better: "higher", Time: "host", Layer: "gpu", Source: srcGPU, Moves: []string{"main_per_s"}, On: gpuWorkloads},
	{Name: "gpu.segment_cps_max", Unit: "1/s", Better: "higher", Time: "host", Layer: "gpu", Source: srcGPU, Moves: []string{"main_per_s"}, On: gpuWorkloads},
	{Name: "gpu.allocs_per_kcycle", Unit: "count", Better: "lower", Layer: "gpu", Source: srcGPU, Moves: []string{"host_alloc_mb"}, On: gpuWorkloads},
	{Name: "gpu.shard_speedup", Unit: "ratio", Better: "higher", Time: "host", Layer: "gpu", Source: srcGPU,
		Help: "sharded loop over serial loop, each at its quiet segment time; moves no end-to-end metric (the sharded loop's speed does not repeat within a tenth on shared cores)"},
	{Name: "gpu.barrier_spins_per_cycle", Unit: "count", Better: "lower", Layer: "gpu", Source: srcGPU,
		Help: "spin-barrier wait iterations per sharded cycle; moves no end-to-end metric"},
	{Name: "gpu.savestate_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "gpu", Source: srcGPU, Moves: []string{"write_per_s"}, On: []string{wlComputePrivate, wlMemoryShared, wlSweepResume}},
	{Name: "gpu.restorestate_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "gpu", Source: srcGPU, Moves: []string{"alt_per_s"}, On: []string{wlComputePrivate, wlMemoryShared, wlSweepResume}},

	// Cycle-phase shares from the outside-in loop (looptrace.go).
	{Name: "sm.tick_us_per_cycle", Unit: "us", Better: "lower", Time: "host", Layer: "sm", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlComputePrivate}},
	{Name: "sm.complete_us_per_cycle", Unit: "us", Better: "lower", Time: "host", Layer: "sm", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlComputePrivate}},
	{Name: "sm.share", Unit: "ratio", Better: "lower", Time: "host", Layer: "sm", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlComputePrivate}},
	{Name: "gpu.inject_us_per_cycle", Unit: "us", Better: "lower", Time: "host", Layer: "gpu", Source: srcProbe, Moves: []string{"main_per_s"}, On: gpuWorkloads},
	{Name: "noc.req_tick_us_per_cycle", Unit: "us", Better: "lower", Time: "host", Layer: "noc", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "noc.rep_tick_us_per_cycle", Unit: "us", Better: "lower", Time: "host", Layer: "noc", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "noc.share", Unit: "ratio", Better: "lower", Time: "host", Layer: "noc", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "llc.tick_us_per_cycle", Unit: "us", Better: "lower", Time: "host", Layer: "llc", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "llc.share", Unit: "ratio", Better: "lower", Time: "host", Layer: "llc", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "dram.tick_us_per_cycle", Unit: "us", Better: "lower", Time: "host", Layer: "dram", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "dram.share", Unit: "ratio", Better: "lower", Time: "host", Layer: "dram", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "trace.loop_divergence", Unit: "ratio", Better: "lower", Layer: "trace", Source: srcProbe,
		Help: "largest relative difference of instructions / LLC accesses / DRAM requests between the outside-in loop and gpu.Run; 0 means the phase shares describe the real loop"},
	{Name: "trace.loop_overhead_pct", Unit: "%", Better: "lower", Time: "host", Layer: "trace", Source: srcProbe,
		Help: "host time of the timestamped outside-in loop over gpu.Run on the same spec"},

	// Simulated-machine counters (simulated time, exact, from RunStats).
	{Name: "sm.ipc", Unit: "ipc", Better: "higher", Time: "simulated", Layer: "sm", Source: srcGPU},
	{Name: "sm.l1_miss_rate", Unit: "ratio", Better: "lower", Time: "simulated", Layer: "sm", Source: srcGPU},
	{Name: "sm.avg_load_latency", Unit: "cycles", Better: "lower", Time: "simulated", Layer: "sm", Source: srcGPU},
	{Name: "noc.flits_per_cycle", Unit: "1/cycle", Better: "lower", Time: "simulated", Layer: "noc", Source: srcGPU},
	{Name: "noc.avg_latency", Unit: "cycles", Better: "lower", Time: "simulated", Layer: "noc", Source: srcGPU},
	{Name: "llc.accesses_per_cycle", Unit: "1/cycle", Better: "lower", Time: "simulated", Layer: "llc", Source: srcGPU},
	{Name: "llc.miss_rate", Unit: "ratio", Better: "lower", Time: "simulated", Layer: "llc", Source: srcGPU},
	{Name: "llc.response_rate", Unit: "1/cycle", Better: "higher", Time: "simulated", Layer: "llc", Source: srcGPU},
	{Name: "dram.requests_per_cycle", Unit: "1/cycle", Better: "lower", Time: "simulated", Layer: "dram", Source: srcGPU},
	{Name: "dram.row_hit_rate", Unit: "ratio", Better: "higher", Time: "simulated", Layer: "dram", Source: srcGPU},
	{Name: "dram.avg_queueing", Unit: "cycles", Better: "lower", Time: "simulated", Layer: "dram", Source: srcGPU},
	{Name: "core.reconfigs", Unit: "count", Better: "lower", Time: "simulated", Layer: "core", Source: srcGPU},
	{Name: "core.stall_cycles", Unit: "cycles", Better: "lower", Time: "simulated", Layer: "core", Source: srcGPU},
	{Name: "core.gated_fraction", Unit: "ratio", Better: "higher", Time: "simulated", Layer: "core", Source: srcGPU},

	// Primitives: isolated drivers fed by the workload's own op/address stream.
	{Name: "ring.pushpop_ns", Unit: "ns", Better: "lower", Time: "host", Layer: "ring", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "pool.getput_ns", Unit: "ns", Better: "lower", Time: "host", Layer: "pool", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "cache.access_ns", Unit: "ns", Better: "lower", Time: "host", Layer: "cache", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlComputePrivate}},
	{Name: "cache.mshr_probe_commit_ns", Unit: "ns", Better: "lower", Time: "host", Layer: "cache", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "addrmap.map_ns", Unit: "ns", Better: "lower", Time: "host", Layer: "addrmap", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlMemoryShared}},
	{Name: "workload.nextop_ns", Unit: "ns", Better: "lower", Time: "host", Layer: "workload", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlComputePrivate}},
	{Name: "core.observe_ns", Unit: "ns", Better: "lower", Time: "host", Layer: "core", Source: srcProbe, Moves: []string{"main_per_s"}, On: []string{wlComputePrivate}},

	// checkpoint: direct Save/Encode/Decode/Restore calls, plus the timing
	// decorator around checkpoint.Manager in the sweep round.
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "checkpoint", Source: srcProbe, Moves: []string{"write_per_s"}, On: []string{wlComputePrivate, wlMemoryShared, wlSweepResume}},
	{Name: "checkpoint.encode_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "checkpoint", Source: srcProbe, Moves: []string{"write_per_s"}, On: []string{wlComputePrivate, wlMemoryShared, wlSweepResume, wlServiceMix}},
	{Name: "checkpoint.encode_mb_per_s", Unit: "MB/s", Better: "higher", Time: "host", Layer: "checkpoint", Source: srcProbe, Moves: []string{"write_per_s"}, On: []string{wlSweepResume}},
	{Name: "checkpoint.blob_kb", Unit: "KB", Better: "lower", Layer: "checkpoint", Source: srcProbe, Moves: []string{"write_per_s"}, On: []string{wlSweepResume}},
	{Name: "checkpoint.decode_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "checkpoint", Source: srcProbe, Moves: []string{"alt_per_s"}, On: []string{wlComputePrivate, wlMemoryShared, wlSweepResume}},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "checkpoint", Source: srcProbe, Moves: []string{"alt_per_s"}, On: []string{wlComputePrivate, wlMemoryShared, wlSweepResume}},
	{Name: "checkpoint.decode_alloc_kb", Unit: "KB", Better: "lower", Layer: "checkpoint", Source: srcProbe, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume}},
	{Name: "checkpoint.decode_allocs_k", Unit: "count", Better: "lower", Layer: "checkpoint", Source: srcProbe, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume},
		Help: "thousands of objects one Decode allocates"},
	{Name: "checkpoint.restore_alloc_kb", Unit: "KB", Better: "lower", Layer: "checkpoint", Source: srcProbe, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume},
		Help: "one Restore: program build + gpu.New + RestoreState"},
	{Name: "checkpoint.restore_allocs_k", Unit: "count", Better: "lower", Layer: "checkpoint", Source: srcProbe, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume}},
	{Name: "checkpoint.bank_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "checkpoint", Source: srcSweep, Moves: []string{"write_per_s"}, On: []string{wlSweepResume}},
	{Name: "checkpoint.probe_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "checkpoint", Source: srcSweep, Moves: []string{"alt_per_s"}, On: []string{wlSweepResume}},
	{Name: "checkpoint.resume_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "checkpoint", Source: srcSweep, Moves: []string{"alt_per_s"}, On: []string{wlSweepResume}},
	{Name: "checkpoint.hit_ratio", Unit: "ratio", Better: "higher", Layer: "checkpoint", Source: srcSweep, Moves: []string{"alt_per_s"}, On: []string{wlSweepResume}},
	{Name: "checkpoint.cycles_skipped_share", Unit: "ratio", Better: "higher", Time: "simulated", Layer: "checkpoint", Source: srcSweep, Moves: []string{"alt_per_s"}, On: []string{wlSweepResume}},

	// simstore.
	{Name: "simstore.fingerprint_us", Unit: "us", Better: "lower", Time: "host", Layer: "simstore", Source: srcProbe, Moves: []string{"main_per_s", "main_op_ms"}, On: []string{wlServiceMix}},
	{Name: "simstore.get_us", Unit: "us", Better: "lower", Time: "host", Layer: "simstore", Source: srcProbe, Moves: []string{"main_per_s", "main_op_ms"}, On: []string{wlServiceMix}},
	{Name: "simstore.put_us", Unit: "us", Better: "lower", Time: "host", Layer: "simstore", Source: srcProbe, Moves: []string{"write_per_s"}, On: []string{wlServiceMix}},
	{Name: "simstore.getblob_us", Unit: "us", Better: "lower", Time: "host", Layer: "simstore", Source: srcProbe, Moves: []string{"alt_per_s"}, On: []string{wlSweepResume}},
	{Name: "simstore.putblob_us", Unit: "us", Better: "lower", Time: "host", Layer: "simstore", Source: srcProbe, Moves: []string{"write_per_s"}, On: []string{wlSweepResume, wlServiceMix}},
	{Name: "simstore.open_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "simstore", Source: srcProbe, Moves: []string{"setup_s"}, On: []string{wlSweepResume, wlServiceMix}},
	{Name: "simstore.disk_mb", Unit: "MB", Better: "lower", Layer: "simstore", Source: srcSweep, Moves: []string{"write_per_s"}, On: []string{wlSweepResume},
		Help: "bytes on disk after the bank pass"},

	// sweep: Runner.TraceFor spans.
	{Name: "sweep.run_ms_p50", Unit: "ms", Better: "lower", Time: "host", Layer: "sweep", Source: srcSweep, Moves: []string{"main_per_s", "main_op_ms"}, On: []string{wlSweepResume}},
	{Name: "sweep.run_ms_max", Unit: "ms", Better: "lower", Time: "host", Layer: "sweep", Source: srcSweep, Moves: []string{"main_per_s"}, On: []string{wlSweepResume},
		Help: "the straggler sets the wall"},
	{Name: "sweep.build_program_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "sweep", Source: srcSweep, Moves: []string{"main_per_s"}, On: []string{wlSweepResume}},
	{Name: "sweep.parallel_wall_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "sweep", Source: srcSweep,
		Help: "wall-clock of the batch on `nproc` workers: the user-visible time per figure, too noisy on the reference host to carry a bound"},
	{Name: "sweep.parallel_speedup", Unit: "ratio", Better: "higher", Time: "host", Layer: "sweep", Source: srcSweep,
		Help: "one-worker wall over nproc-worker wall of the plain pass"},
	{Name: "sweep.worker_utilisation", Unit: "ratio", Better: "higher", Time: "host", Layer: "sweep", Source: srcSweep,
		Help: "parallel speed-up over worker count"},
	{Name: "sweep.plain_alloc_mb", Unit: "MB", Better: "lower", Layer: "sweep", Source: srcSweep, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume}},
	{Name: "sweep.bank_alloc_mb", Unit: "MB", Better: "lower", Layer: "sweep", Source: srcSweep, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume}},
	{Name: "sweep.resume_alloc_mb", Unit: "MB", Better: "lower", Layer: "sweep", Source: srcSweep, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume}},

	{Name: "sweep.plain_allocs_k", Unit: "count", Better: "lower", Layer: "sweep", Source: srcSweep, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume},
		Help: "thousands of objects the pass allocated"},
	{Name: "sweep.bank_allocs_k", Unit: "count", Better: "lower", Layer: "sweep", Source: srcSweep, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume}},
	{Name: "sweep.resume_allocs_k", Unit: "count", Better: "lower", Layer: "sweep", Source: srcSweep, Moves: []string{"host_alloc_mb"}, On: []string{wlSweepResume}},

	// server / client.
	{Name: "server.handler_hit_us", Unit: "us", Better: "lower", Time: "host", Layer: "server", Source: srcProbe, Moves: []string{"main_per_s", "main_op_ms"}, On: []string{wlServiceMix},
		Help: "Handler().ServeHTTP of a cached POST /v1/runs on a recorder, no socket"},
	{Name: "server.metrics_render_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "server", Source: srcProbe},
	{Name: "client.roundtrip_overhead_us", Unit: "us", Better: "lower", Time: "host", Layer: "client", Source: srcService, Moves: []string{"main_op_ms"}, On: []string{wlServiceMix},
		Help: "client-side hit p50 minus server.handler_hit_us"},
	{Name: "server.hit_p99_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "server", Source: srcService, Moves: []string{"main_per_s"}, On: []string{wlServiceMix}},
	{Name: "server.miss_p50_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "server", Source: srcService, Moves: []string{"write_per_s"}, On: []string{wlServiceMix}},
	{Name: "server.miss_queue_wait_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "server", Source: srcService, Moves: []string{"write_per_s"}, On: []string{wlServiceMix}},
	{Name: "server.polls_per_miss", Unit: "count", Better: "lower", Layer: "server", Source: srcService, Moves: []string{"write_per_s"}, On: []string{wlServiceMix}},
	{Name: "server.errors", Unit: "count", Better: "lower", Layer: "server", Source: srcService},

	// cluster.
	{Name: "cluster.ranked2_ns", Unit: "ns", Better: "lower", Time: "host", Layer: "cluster", Source: srcProbe, Moves: []string{"alt_per_s"}, On: []string{wlServiceMix}},
	{Name: "cluster.ranked8_ns", Unit: "ns", Better: "lower", Time: "host", Layer: "cluster", Source: srcProbe, Moves: []string{"alt_per_s"}, On: []string{wlServiceMix}},
	{Name: "cluster.forward_p50_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "cluster", Source: srcService, Moves: []string{"alt_per_s"}, On: []string{wlServiceMix}},
	{Name: "cluster.forward_p99_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "cluster", Source: srcService, Moves: []string{"alt_per_s"}, On: []string{wlServiceMix}},
	{Name: "cluster.replica_hit_ratio", Unit: "ratio", Better: "higher", Layer: "cluster", Source: srcService, Moves: []string{"alt_per_s"}, On: []string{wlServiceMix},
		Help: "forward requests answered from a peer's copy without executing, over forward requests"},
	{Name: "cluster.replication_lag_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "cluster", Source: srcService, Moves: []string{"write_per_s"}, On: []string{wlServiceMix},
		Help: "job seen done to record visible on the replica"},
	{Name: "cluster.join_converge_ms", Unit: "ms", Better: "lower", Time: "host", Layer: "cluster", Source: srcService, Moves: []string{"setup_s"}, On: []string{wlServiceMix}},

	// obs.
	{Name: "obs.registry_render_us", Unit: "us", Better: "lower", Time: "host", Layer: "obs", Source: srcProbe, Moves: []string{"main_op_ms"}, On: []string{wlServiceMix},
		Help: "moves hit latency only through scrape contention"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Time: "host", Layer: "trace", Source: srcRun,
		Help: "host time of the workload's traced round over its untraced round"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
