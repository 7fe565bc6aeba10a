package main

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: which kind of round it is, at which
// sizes, and what its main / alt / write paths are. Sizes are constants:
// identical on every commit and every host, chosen so one round takes a few
// seconds on a 2-core host and a run fits several rounds.
type workloadDef struct {
	Name string
	Why  string
	// Kind is the round the workload consists of.
	Kind string
	// Rep is the Table-2 workload the miniature rounds and the probes of a
	// traced run are fed with.
	Rep string

	GPU     gpuSizes
	Sweep   sweepSizes
	Service serviceSizes

	// Paths says what the generic end-to-end metrics measure here.
	Paths map[string]string
}

var gpuPaths = map[string]string{
	"main_per_s":  "simulated cycles per host second, serial loop",
	"main_op_ms":  "host ms per kernel segment, serial loop",
	"alt_per_s":   "GPUs restored from the last banked snapshot per host second (Manager.Resume)",
	"write_per_s": "simulated cycles per host second while banking a snapshot every BankEvery kernels",
	"setup_s":     "workload generator + gpu.New + warm-up",
}

var workloads = []workloadDef{
	{
		Name: wlComputePrivate, Kind: srcGPU, Rep: "MM",
		Why:   "MM on the private LLC: SM issue and L1 do the work, the gated NoC stage and DRAM almost none, so an sm/cache/gpu-loop change shows here",
		GPU:   gpuSizes{Abbr: "MM", Mode: config.LLCPrivate, Warmup: 8_000, SegCycles: 1_000, Segments: 32, BankEvery: 4, Resumes: 4},
		Paths: gpuPaths,
	},
	{
		Name: wlMemoryShared, Kind: srcGPU, Rep: "LUD",
		Why:   "LUD on the shared LLC: nearly every instruction crosses NoC, LLC and DRAM while SMs stall, the mirror image of compute-private, with stores",
		GPU:   gpuSizes{Abbr: "LUD", Mode: config.LLCShared, Warmup: 8_000, SegCycles: 1_000, Segments: 32, BankEvery: 4, Resumes: 4},
		Paths: gpuPaths,
	},
	{
		Name: wlSweepResume, Kind: srcSweep, Rep: "AN",
		Why:   "a Figure-11-shaped batch of 12 short runs three times (plain, bank, resume): per-run set-up, the adaptive controller, and checkpoint + store both ways",
		Sweep: sweepSizes{Abbrs: []string{"AN", "MM", "LUD", "BS"}, Measure: 2_000, Warmup: 1_000, Kernels: 2, History: 500, Reopens: 8},
		Paths: map[string]string{
			"main_per_s":  "sweep runs per host second on one worker, plain pass (no checkpointer)",
			"main_op_ms":  "host ms of the median spec of the batch, plain pass",
			"alt_per_s":   "sweep runs per host second, resume pass (re-opened store: probe, GetBlob, Decode, Restore)",
			"write_per_s": "sweep runs per host second, bank pass (fresh store: SaveState, Encode, PutBlob)",
			"setup_s":     "re-opening the banked store and handing it to a fresh checkpoint manager",
		},
	},
	{
		Name: wlServiceMix, Kind: srcService, Rep: "VA",
		Why:     "three in-process simd daemons under one closed-loop client: the simulator idles and server, simstore, cluster, client and obs do everything",
		Service: serviceSizes{HitSpecs: 16, Hits: 1_500, Forwards: 750, Batch: 25, MissSpecs: 6, Setups: 2},
		Paths: map[string]string{
			"main_per_s":  "cached-hit POST /v1/runs per host second, asked of the owner",
			"main_op_ms":  "host ms of the median request of a batch of cached hits",
			"alt_per_s":   "requests per host second asked of the member holding no copy (one record probe to its peers)",
			"write_per_s": "cold tiny runs executed, stored, banked and replicated per host second",
			"setup_s":     "3 stores + 3 daemons + membership convergence + pre-storing the hit set",
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Miniature rounds: what a traced run uses to put a number on the layers its
// own workload does not reach, fed by the workload's representative spec.
func miniGPU(abbr string) gpuSizes {
	return gpuSizes{Abbr: abbr, Mode: config.LLCShared, Warmup: 2_000, SegCycles: 1_000, Segments: 4, BankEvery: 2, Resumes: 1}
}

func miniSweep(abbr string) sweepSizes {
	return sweepSizes{Abbrs: []string{abbr}, Measure: 2_000, Warmup: 1_000, Kernels: 2, History: 50, Reopens: 2}
}

var miniService = serviceSizes{HitSpecs: 4, Hits: 600, Forwards: 200, Batch: 25, MissSpecs: 4, Setups: 1}

// repSpec is the spec the probes run: the representative workload on the
// static shared LLC (the outside-in loop covers static organizations only).
func repSpec(abbr string, seed int64) (sweep.RunSpec, error) {
	w, ok := workload.ByAbbr(abbr)
	if !ok {
		return sweep.RunSpec{}, fmt.Errorf("unknown Table-2 workload %q", abbr)
	}
	return sweep.RunSpec{
		Key:           abbr + "/probe",
		Workloads:     []workload.Spec{w},
		Config:        benchConfig(config.LLCShared, 2_000),
		Seed:          seed,
		MeasureCycles: probeLoopCycles,
		WarmupCycles:  probeWarmCycles,
	}, nil
}
