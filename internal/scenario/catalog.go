package scenario

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// catalogSpec builds the declarative sweep unit shared by every recipe.
func catalogSpec(key string, cfg config.Config, scale Scale, specs ...workload.Spec) sweep.RunSpec {
	return sweep.RunSpec{
		Key:           key,
		Workloads:     specs,
		Config:        cfg,
		Seed:          scale.Seed,
		MeasureCycles: scale.MeasureCycles,
		WarmupCycles:  scale.WarmupCycles,
	}
}

// uniformSharedSpec is a single-kernel capacity-sensitive workload (the
// paper's shared-friendly pattern) with a parameterizable shared footprint.
func uniformSharedSpec(abbr string, mb float64) workload.Spec {
	return workload.Spec{
		Name: "Scenario Uniform-Shared " + abbr, Abbr: abbr,
		Class: workload.SharedFriendly, SharedDataMB: mb, Kernels: 1,
		Pattern:  workload.PatternUniformShared,
		MemRatio: 0.25, SharedFraction: 0.85, WriteFraction: 0.15,
		PrivateKBPerCTA: 8, ALULatency: 4,
	}
}

// lockstepSpec is a single-kernel lockstep-sweep workload (the paper's
// private-friendly pattern) with a parameterizable frontier jitter.
func lockstepSpec(abbr string, jitter int) workload.Spec {
	return workload.Spec{
		Name: "Scenario Lockstep " + abbr, Abbr: abbr,
		Class: workload.PrivateFriendly, SharedDataMB: 2.0, Kernels: 1,
		Pattern:  workload.PatternLockstepSweep,
		MemRatio: 0.55, SharedFraction: 0.985, WriteFraction: 0.05,
		FrontierJitterLines: jitter, TrailingWindowLines: 512,
		PrivateKBPerCTA: 1, ALULatency: 4,
	}
}

// mustByAbbr fetches a Table 2 benchmark; the catalog only names entries that
// exist, which TestCatalogDeclares checks.
func mustByAbbr(abbr string) workload.Spec {
	s, ok := workload.ByAbbr(abbr)
	if !ok {
		panic(fmt.Sprintf("scenario: unknown benchmark %q", abbr))
	}
	return s
}

// requireActivity checks that every result simulated real work: instructions
// issued, memory traffic generated, and the LLC actually exercised.
func requireActivity(results []sweep.Result) []string {
	var v []string
	for _, res := range results {
		s := res.Stats
		switch {
		case s.Instructions == 0:
			v = append(v, fmt.Sprintf("run %q: issued no instructions", res.Key))
		case s.SM.MemInstructions == 0:
			v = append(v, fmt.Sprintf("run %q: issued no memory instructions", res.Key))
		case s.LLC.Accesses == 0:
			v = append(v, fmt.Sprintf("run %q: generated no LLC traffic", res.Key))
		}
	}
	return v
}

// requireDistinct checks that no two results carry identical statistics —
// the proof that the knob a ladder scenario varies is actually live.
func requireDistinct(results []sweep.Result) []string {
	var v []string
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			if statsEqual(results[i].Stats, results[j].Stats) {
				v = append(v, fmt.Sprintf("runs %q and %q produced identical statistics; the varied knob is dead",
					results[i].Key, results[j].Key))
			}
		}
	}
	return v
}

// requirePerAppActivity checks a multi-program run kept every application
// issuing instructions.
func requirePerAppActivity(results []sweep.Result, apps int) []string {
	var v []string
	for _, res := range results {
		if len(res.Stats.AppInstructions) != apps {
			v = append(v, fmt.Sprintf("run %q: %d application slots, want %d",
				res.Key, len(res.Stats.AppInstructions), apps))
			continue
		}
		for app, instr := range res.Stats.AppInstructions {
			if instr == 0 {
				v = append(v, fmt.Sprintf("run %q: application %d issued no instructions", res.Key, app))
			}
		}
	}
	return v
}

// Catalog returns every scenario recipe, ordered by level then name. The
// catalog spans all five workload axes across levels 1–3; levels 4–5 reuse
// the same recipes at figure scale via RunOptions.Scale rather than
// duplicating entries.
func Catalog() []Scenario {
	return []Scenario{
		// ----------------------------------------------------------------
		// Level 1 — smoke: runs on every CI push, -short safe.
		// ----------------------------------------------------------------
		{
			Name:        "l1-uniform-shared",
			Description: "capacity-sensitive shared-friendly workload under both LLC organizations",
			Level:       Level1,
			Axes:        []Axis{AxisSharing, AxisLocality},
			Specs: func(e *Env) []sweep.RunSpec {
				w := mustByAbbr("GEMM")
				return []sweep.RunSpec{
					catalogSpec("gemm/shared", SmokeConfig(config.LLCShared), e.Scale, w),
					catalogSpec("gemm/private", SmokeConfig(config.LLCPrivate), e.Scale, w),
				}
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return requireActivity(results)
			},
		},
		{
			Name:        "l1-lockstep-private",
			Description: "lockstep frontier sweep (private-friendly) under both LLC organizations",
			Level:       Level1,
			Axes:        []Axis{AxisSharing, AxisDivergence},
			Specs: func(e *Env) []sweep.RunSpec {
				w := mustByAbbr("AN")
				return []sweep.RunSpec{
					catalogSpec("an/shared", SmokeConfig(config.LLCShared), e.Scale, w),
					catalogSpec("an/private", SmokeConfig(config.LLCPrivate), e.Scale, w),
				}
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return requireActivity(results)
			},
		},
		{
			Name:        "l1-streaming-neutral",
			Description: "per-CTA streaming workload where the LLC organization should barely matter",
			Level:       Level1,
			Axes:        []Axis{AxisLocality},
			Specs: func(e *Env) []sweep.RunSpec {
				w := mustByAbbr("VA")
				return []sweep.RunSpec{
					catalogSpec("va/shared", SmokeConfig(config.LLCShared), e.Scale, w),
					catalogSpec("va/private", SmokeConfig(config.LLCPrivate), e.Scale, w),
					catalogSpec("va/adaptive", SmokeConfig(config.LLCAdaptive), e.Scale, w),
				}
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return requireActivity(results)
			},
		},
		{
			Name:        "l1-multiprogram-pair",
			Description: "shared-friendly and private-friendly apps co-executing, uniform and per-app LLC views",
			Level:       Level1,
			Axes:        []Axis{AxisMultiProgram, AxisSharing},
			Specs: func(e *Env) []sweep.RunSpec {
				a, b := mustByAbbr("GEMM"), mustByAbbr("AN")
				uniform := catalogSpec("gemm+an/shared", SmokeConfig(config.LLCShared), e.Scale, a, b)
				perApp := catalogSpec("gemm+an/per-app", SmokeConfig(config.LLCShared), e.Scale, a, b)
				perApp.AppModes = []config.LLCMode{config.LLCShared, config.LLCPrivate}
				return []sweep.RunSpec{uniform, perApp}
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return append(requirePerAppActivity(results, 2), requireDistinct(results)...)
			},
		},

		// ----------------------------------------------------------------
		// Level 2 — ladders and mode sweeps: full test suite.
		// ----------------------------------------------------------------
		checkpointResumeScenario(),
		{
			Name:        "l2-divergence-jitter",
			Description: "lockstep tightness ladder: frontier jitter 0/4/16 lines under a private LLC",
			Level:       Level2,
			Axes:        []Axis{AxisDivergence, AxisSharing},
			Specs: func(e *Env) []sweep.RunSpec {
				var specs []sweep.RunSpec
				for _, jitter := range []int{0, 4, 16} {
					specs = append(specs, catalogSpec(
						fmt.Sprintf("jitter-%d", jitter),
						SmokeConfig(config.LLCPrivate), e.Scale,
						lockstepSpec(fmt.Sprintf("LS%d", jitter), jitter)))
				}
				return specs
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return append(requireActivity(results), requireDistinct(results)...)
			},
		},
		{
			Name:        "l2-footprint-ladder",
			Description: "shared-footprint ladder: 0.25/1/4 MB uniform-shared under a shared LLC",
			Level:       Level2,
			Axes:        []Axis{AxisLocality, AxisSharing},
			Specs: func(e *Env) []sweep.RunSpec {
				var specs []sweep.RunSpec
				for _, mb := range []float64{0.25, 1, 4} {
					specs = append(specs, catalogSpec(
						fmt.Sprintf("footprint-%gmb", mb),
						SmokeConfig(config.LLCShared), e.Scale,
						uniformSharedSpec(fmt.Sprintf("US%g", mb), mb)))
				}
				return specs
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return append(requireActivity(results), requireDistinct(results)...)
			},
		},
		{
			Name:        "l2-mode-shootout",
			Description: "one representative per workload class under shared, private and adaptive LLCs",
			Level:       Level2,
			Axes:        []Axis{AxisSharing, AxisLocality},
			Specs: func(e *Env) []sweep.RunSpec {
				var specs []sweep.RunSpec
				for _, abbr := range []string{"GEMM", "AN", "VA"} {
					for _, mode := range []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive} {
						specs = append(specs, catalogSpec(
							fmt.Sprintf("%s/%s", abbr, mode),
							SmokeConfig(mode), e.Scale, mustByAbbr(abbr)))
					}
				}
				return specs
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return requireActivity(results)
			},
		},
		{
			Name:        "l2-multiprogram-modes",
			Description: "co-executing pair under uniform shared, uniform private, and split per-app views",
			Level:       Level2,
			Axes:        []Axis{AxisMultiProgram, AxisSharing},
			Specs: func(e *Env) []sweep.RunSpec {
				a, b := mustByAbbr("GEMM"), mustByAbbr("AN")
				shared := catalogSpec("pair/shared", SmokeConfig(config.LLCShared), e.Scale, a, b)
				private := catalogSpec("pair/private", SmokeConfig(config.LLCPrivate), e.Scale, a, b)
				split := catalogSpec("pair/split", SmokeConfig(config.LLCShared), e.Scale, a, b)
				split.AppModes = []config.LLCMode{config.LLCShared, config.LLCPrivate}
				return []sweep.RunSpec{shared, private, split}
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return append(requirePerAppActivity(results, 2), requireDistinct(results)...)
			},
		},

		// ----------------------------------------------------------------
		// Level 3 — broader sweeps: full test suite, tens of seconds.
		// ----------------------------------------------------------------
		{
			Name:        "l3-noc-topologies",
			Description: "one workload across every NoC topology (h-xbar, full, concentrated, ideal)",
			Level:       Level3,
			Axes:        []Axis{AxisLocality, AxisSharing},
			Specs: func(e *Env) []sweep.RunSpec {
				var specs []sweep.RunSpec
				for _, topo := range []config.NoCTopology{
					config.NoCHierarchical, config.NoCFull, config.NoCConcentrated, config.NoCIdeal,
				} {
					cfg := SmokeConfig(config.LLCShared)
					cfg.NoC = topo
					specs = append(specs, catalogSpec("gemm/"+topo.String(), cfg, e.Scale, mustByAbbr("GEMM")))
				}
				return specs
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return append(requireActivity(results), requireDistinct(results)...)
			},
		},
		{
			Name:        "l3-seed-stability",
			Description: "same workload under three seeds: each run deterministic, runs mutually distinct",
			Level:       Level3,
			Axes:        []Axis{AxisDivergence},
			Specs: func(e *Env) []sweep.RunSpec {
				var specs []sweep.RunSpec
				for _, seed := range []int64{1, 2, 3} {
					scale := e.Scale
					scale.Seed = seed
					specs = append(specs, catalogSpec(
						fmt.Sprintf("gemm/seed-%d", seed),
						SmokeConfig(config.LLCShared), scale, mustByAbbr("GEMM")))
				}
				return specs
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return append(requireActivity(results), requireDistinct(results)...)
			},
		},
		{
			Name:        "l3-work-monotonicity",
			Description: "same single-kernel workload at 1x/2x/4x cycles: issued work must be monotone",
			Level:       Level3,
			Axes:        []Axis{AxisLocality},
			Specs: func(e *Env) []sweep.RunSpec {
				var specs []sweep.RunSpec
				for _, div := range []uint64{4, 2, 1} {
					scale := e.Scale
					scale.MeasureCycles /= div
					spec := catalogSpec(
						fmt.Sprintf("va/cycles-%d", scale.MeasureCycles),
						SmokeConfig(config.LLCShared), scale, mustByAbbr("VA"))
					// A single kernel spanning the whole window keeps the
					// shorter run a strict prefix of the longer one.
					spec.Kernels = 1
					specs = append(specs, spec)
				}
				return specs
			},
			Check: func(e *Env, results []sweep.Result) []string {
				v := requireActivity(results)
				for i := 1; i < len(results); i++ {
					prev, cur := results[i-1].Stats, results[i].Stats
					if cur.Instructions < prev.Instructions {
						v = append(v, fmt.Sprintf(
							"instructions not monotone in cycles: %d cycles issued %d, %d cycles issued %d",
							prev.Cycles, prev.Instructions, cur.Cycles, cur.Instructions))
					}
				}
				return v
			},
		},
		{
			Name:        "l3-class-representatives",
			Description: "one Table 2 benchmark per class under both static LLC organizations",
			Level:       Level3,
			Axes:        []Axis{AxisSharing, AxisLocality, AxisDivergence},
			Specs: func(e *Env) []sweep.RunSpec {
				var specs []sweep.RunSpec
				for _, abbr := range []string{"LUD", "AN", "BS"} {
					for _, mode := range []config.LLCMode{config.LLCShared, config.LLCPrivate} {
						specs = append(specs, catalogSpec(
							fmt.Sprintf("%s/%s", abbr, mode),
							SmokeConfig(mode), e.Scale, mustByAbbr(abbr)))
					}
				}
				return specs
			},
			Check: func(e *Env, results []sweep.Result) []string {
				return requireActivity(results)
			},
		},
	}
}

// checkpointResumeScenario gates the internal/checkpoint subsystem: the
// declared runs execute cold through the scenario's executor, then the Check
// hook re-executes them checkpoint-assisted against a scratch store — once to
// bank every prefix, once resuming from them — and finally stretches the
// measurement window so only the warmup prefix still matches. Every variant
// must reproduce the cold statistics byte for byte, and the resumed passes
// must actually hit the store.
func checkpointResumeScenario() Scenario {
	declare := func(e *Env) []sweep.RunSpec {
		w := mustByAbbr("GEMM")
		shared := catalogSpec("gemm/shared", SmokeConfig(config.LLCShared), e.Scale, w)
		adaptive := catalogSpec("gemm/adaptive", SmokeConfig(config.LLCAdaptive), e.Scale, w)
		// Multiple kernels give the resume path interior boundaries to bank,
		// not just the warmup snapshot.
		shared.Kernels = 3
		adaptive.Kernels = 3
		return []sweep.RunSpec{shared, adaptive}
	}
	return Scenario{
		Name:        "l2-checkpoint-resume",
		Description: "checkpoint-assisted re-execution resumes from banked prefixes with byte-identical statistics",
		Level:       Level2,
		Axes:        []Axis{AxisSharing, AxisLocality},
		Specs:       declare,
		Check: func(e *Env, results []sweep.Result) []string {
			v := requireActivity(results)
			mgr, done, err := openManager()
			if err != nil {
				return append(v, err.Error())
			}
			defer done()
			for i, spec := range declare(e) {
				// Bank every prefix, then resume from the furthest one.
				for _, msg := range checkCheckpointResume(mgr, spec, results[i].Stats) {
					v = append(v, fmt.Sprintf("run %q: %s", spec.Key, msg))
				}

				// Stretched measurement window: the kernel-boundary keys no
				// longer match, but the warmup prefix still does.
				longer := spec
				longer.Key = spec.Key + "/stretched"
				longer.MeasureCycles += e.Scale.MeasureCycles / 2
				longerCold, err := sweep.Execute(longer)
				if err != nil {
					v = append(v, fmt.Sprintf("run %q: cold execution: %v", longer.Key, err))
					continue
				}
				before := mgr.ManagerStats().Hits
				longerWarm, err := sweep.ExecuteSpanned(longer, mgr, nil)
				if err != nil {
					v = append(v, fmt.Sprintf("run %q: warmup-resumed execution: %v", longer.Key, err))
					continue
				}
				if !statsEqual(longerCold, longerWarm) {
					v = append(v, fmt.Sprintf("run %q: warmup-resumed run differs from cold statistics", longer.Key))
				}
				if mgr.ManagerStats().Hits == before {
					v = append(v, fmt.Sprintf("run %q: stretched run did not resume from the shared warmup prefix", longer.Key))
				}
			}
			return v
		},
	}
}
