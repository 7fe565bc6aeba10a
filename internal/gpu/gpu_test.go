package gpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/workload"
)

// testOptions: shorter runs than the experiment harness but long enough for
// the qualitative class behaviour to appear.
const (
	testWarmup  = 10_000
	testMeasure = 30_000
)

func runBench(t *testing.T, abbr string, mode config.LLCMode, mutate func(*config.Config)) RunStats {
	return runBenchWarm(t, abbr, mode, testWarmup, mutate)
}

func runBenchWarm(t *testing.T, abbr string, mode config.LLCMode, warmup uint64, mutate func(*config.Config)) RunStats {
	t.Helper()
	spec, ok := workload.ByAbbr(abbr)
	if !ok {
		t.Fatalf("unknown benchmark %s", abbr)
	}
	cfg := config.Baseline()
	cfg.LLCMode = mode
	cfg.ProfileWindowCycles = 2_000
	if mutate != nil {
		mutate(&cfg)
	}
	gen, err := workload.NewGenerator(spec, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if warmup > 0 {
		g.Warmup(warmup)
	}
	return g.Run(testMeasure, spec.Kernels)
}

func TestNewValidation(t *testing.T) {
	cfg := config.Baseline()
	spec, _ := workload.ByAbbr("VA")
	gen := workload.MustNewGenerator(spec, cfg, 1)
	if _, err := New(cfg, nil); err == nil {
		t.Error("nil program must be rejected")
	}
	bad := cfg
	bad.NumSMs = 0
	if _, err := New(bad, gen); err == nil {
		t.Error("invalid config must be rejected")
	}
	badMode := cfg
	badMode.LLCMode = config.LLCPrivate
	badMode.LLCSlicesPerMC = 4 // violates the co-design requirement
	if _, err := New(badMode, gen); err == nil {
		t.Error("private mode without NoC/LLC co-design must be rejected")
	}
	// Sizes that used to get past Validate: the first built a GPU whose
	// slices livelock behind controllers that refuse forever, the others
	// panicked inside New.
	for name, mutate := range map[string]func(*config.Config){
		"MCQueueDepth":     func(c *config.Config) { c.MCQueueDepth = 0 },
		"L1MSHRs":          func(c *config.Config) { c.L1MSHRs = 0 },
		"LLCMSHRsPerSlice": func(c *config.Config) { c.LLCMSHRsPerSlice = -1 },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := New(bad, gen); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: New = %v, want an error naming the field", name, err)
		}
	}
}

// TestBasicProgress checks that a simple run makes forward progress and the
// statistics are internally consistent.
func TestBasicProgress(t *testing.T) {
	rs := runBench(t, "VA", config.LLCShared, nil)
	if rs.Instructions == 0 || rs.IPC <= 0 {
		t.Fatalf("no progress: %+v", rs.IPC)
	}
	if rs.IPC > float64(config.Baseline().NumSMs*config.Baseline().SchedulersPerSM) {
		t.Errorf("IPC %.1f exceeds the issue-width bound", rs.IPC)
	}
	if rs.LLC.Accesses == 0 {
		t.Error("expected LLC traffic")
	}
	if rs.LLCMissRate < 0 || rs.LLCMissRate > 1 {
		t.Errorf("LLC miss rate out of range: %v", rs.LLCMissRate)
	}
	if rs.DRAMAccesses == 0 {
		t.Error("expected DRAM traffic")
	}
	// The reply network must deliver exactly as many packets as were
	// injected minus those still in flight; after a run the drift should be
	// small relative to traffic.
	if rs.RepNet.Injected == 0 {
		t.Error("expected reply traffic")
	}
	if rs.FinalMode != config.LLCShared {
		t.Errorf("final mode = %v, want shared", rs.FinalMode)
	}
}

// TestPrivateFriendlyPrefersPrivate reproduces the class behaviour of
// Figure 2b: a private LLC outperforms a shared LLC for a lockstep
// sharing-intensive workload, and its LLC response rate is higher.
func TestPrivateFriendlyPrefersPrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	shared := runBench(t, "MM", config.LLCShared, nil)
	private := runBench(t, "MM", config.LLCPrivate, nil)
	speedup := private.IPC / shared.IPC
	if speedup < 1.10 {
		t.Errorf("private/shared speedup = %.2f, want >= 1.10 for a private-friendly workload", speedup)
	}
	if private.ResponseRate <= shared.ResponseRate {
		t.Errorf("LLC response rate should increase under private caching: %.2f vs %.2f",
			private.ResponseRate, shared.ResponseRate)
	}
}

// TestSharedFriendlyPrefersShared reproduces Figure 2a: a private LLC hurts
// capacity-sensitive workloads and substantially increases their miss rate.
func TestSharedFriendlyPrefersShared(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	shared := runBench(t, "GEMM", config.LLCShared, nil)
	private := runBench(t, "GEMM", config.LLCPrivate, nil)
	if private.IPC >= shared.IPC {
		t.Errorf("private LLC should hurt GEMM: shared %.1f vs private %.1f", shared.IPC, private.IPC)
	}
	if private.LLCMissRate < shared.LLCMissRate+0.10 {
		t.Errorf("private LLC should raise GEMM's miss rate by >=10pp: %.3f vs %.3f",
			shared.LLCMissRate, private.LLCMissRate)
	}
}

// TestNeutralInsensitive reproduces Figure 2c: streaming workloads are
// roughly insensitive to the LLC organization.
func TestNeutralInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	shared := runBench(t, "VA", config.LLCShared, nil)
	private := runBench(t, "VA", config.LLCPrivate, nil)
	ratio := private.IPC / shared.IPC
	if ratio < 0.80 || ratio > 1.25 {
		t.Errorf("neutral workload ratio = %.2f, want within [0.80, 1.25]", ratio)
	}
}

// TestAdaptiveTracksBestOrganization is the headline claim: the adaptive LLC
// is never substantially worse than the better of shared and private, for a
// representative of each class.
func TestAdaptiveTracksBestOrganization(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	cases := []struct {
		abbr string
		want config.LLCMode // expected final organization
	}{
		{"MM", config.LLCPrivate},
		{"GEMM", config.LLCShared},
		{"VA", config.LLCPrivate}, // Rule #1: neutral goes private to save energy
	}
	for _, tc := range cases {
		shared := runBench(t, tc.abbr, config.LLCShared, nil)
		private := runBench(t, tc.abbr, config.LLCPrivate, nil)
		adaptive := runBench(t, tc.abbr, config.LLCAdaptive, nil)

		best := shared.IPC
		if private.IPC > best {
			best = private.IPC
		}
		if adaptive.IPC < 0.85*best {
			t.Errorf("%s: adaptive IPC %.1f is more than 15%% below the best static organization (%.1f)",
				tc.abbr, adaptive.IPC, best)
		}
		if adaptive.IPC < 0.95*shared.IPC {
			t.Errorf("%s: adaptive IPC %.1f must not fall materially below the shared baseline %.1f",
				tc.abbr, adaptive.IPC, shared.IPC)
		}
		if adaptive.FinalMode != tc.want {
			t.Errorf("%s: adaptive final mode = %v, want %v", tc.abbr, adaptive.FinalMode, tc.want)
		}
		if adaptive.Controller == nil {
			t.Fatalf("%s: missing controller stats", tc.abbr)
		}
	}
}

// TestAdaptiveGatesMCRouters checks the NoC co-design: when the adaptive LLC
// selects the private organization on the H-Xbar, the MC-routers are gated
// for a substantial fraction of the run.
func TestAdaptiveGatesMCRouters(t *testing.T) {
	// No warm-up here: the reconfiguration itself (which warm-up would
	// absorb) is part of what is being checked.
	rs := runBenchWarm(t, "VA", config.LLCAdaptive, 0, nil)
	if rs.FinalMode != config.LLCPrivate {
		t.Fatalf("expected the neutral workload to end private, got %v", rs.FinalMode)
	}
	if rs.GatedFraction < 0.3 {
		t.Errorf("gated fraction = %.2f, want >= 0.3", rs.GatedFraction)
	}
	if rs.ReconfigCount == 0 || rs.ReconfigStall == 0 {
		t.Error("expected at least one reconfiguration with a non-zero stall cost")
	}
	if rs.NoC.GatedRouterCycles == 0 {
		t.Error("expected gated router cycles in the NoC statistics")
	}
}

// TestPrivateModeWritePolicy checks the coherence requirement of §4.1: the
// LLC operates write-through when configured as a private cache.
func TestPrivateModeWritePolicy(t *testing.T) {
	spec, _ := workload.ByAbbr("VA")
	cfg := config.Baseline()
	cfg.LLCMode = config.LLCPrivate
	gen := workload.MustNewGenerator(spec, cfg, 1)
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if g.SliceWritePolicy() != cache.WriteThrough {
		t.Error("private LLC must be write-through")
	}
	g.Run(5_000, 1)
	dirty := 0
	for _, s := range g.slices {
		dirty += s.Tags().DirtyLines()
	}
	if dirty != 0 {
		t.Errorf("private (write-through) LLC holds %d dirty lines", dirty)
	}

	cfgShared := config.Baseline()
	genS := workload.MustNewGenerator(spec, cfgShared, 1)
	gs, err := New(cfgShared, genS)
	if err != nil {
		t.Fatal(err)
	}
	if gs.SliceWritePolicy() != cache.WriteBack {
		t.Error("shared LLC must be write-back")
	}
}

// TestPrivateRoutingInvariant checks that under a private LLC every slice
// only ever receives requests from its own cluster.
func TestPrivateRoutingInvariant(t *testing.T) {
	spec, _ := workload.ByAbbr("MM")
	cfg := config.Baseline()
	cfg.LLCMode = config.LLCPrivate
	gen := workload.MustNewGenerator(spec, cfg, 1)
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000, 1)
	for _, s := range g.slices {
		one, two, threeFour, fivePlus, total := s.Tags().SharerHistogram()
		if total == 0 {
			continue
		}
		if two+threeFour+fivePlus != 0 {
			t.Fatalf("slice %d holds lines touched by multiple clusters under private caching (%d/%d/%d of %d)",
				s.ID(), two, threeFour, fivePlus, total)
		}
		_ = one
	}
}

// TestHynixMappingStillWorks exercises the alternative address mapping end
// to end (Figure 16 sensitivity).
func TestHynixMappingStillWorks(t *testing.T) {
	rs := runBench(t, "MM", config.LLCShared, func(c *config.Config) { c.Mapping = config.MappingHynix })
	if rs.Instructions == 0 {
		t.Fatal("no progress under Hynix mapping")
	}
}

// TestFullCrossbarTopology exercises the full-crossbar NoC end to end
// (Figure 7): private mode works but cannot power-gate anything.
func TestFullCrossbarTopology(t *testing.T) {
	rs := runBench(t, "MM", config.LLCPrivate, func(c *config.Config) { c.NoC = config.NoCFull })
	if rs.Instructions == 0 {
		t.Fatal("no progress on the full crossbar")
	}
	if rs.GatedCycles != 0 {
		t.Error("a full crossbar has no MC-routers to gate")
	}
}

// TestScaledSMCount exercises the 40- and 160-SM configurations used by the
// sensitivity analysis.
func TestScaledSMCount(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	for _, sms := range []int{40, 160} {
		rs := runBench(t, "MM", config.LLCPrivate, func(c *config.Config) {
			c.NumSMs = sms
			c.NumClusters = sms / 10
			c.LLCSlicesPerMC = c.NumClusters
		})
		if rs.Instructions == 0 {
			t.Errorf("%d SMs: no progress", sms)
		}
	}
}

// TestMultiProgramPerAppModes checks the Figure 9/15 configuration: two
// applications co-execute, each with its own LLC organization, and both make
// progress.
func TestMultiProgramPerAppModes(t *testing.T) {
	sharedSpec, _ := workload.ByAbbr("GEMM")
	privSpec, _ := workload.ByAbbr("MM")
	cfg := config.Baseline()
	mp, err := workload.NewMultiProgram([]workload.Spec{sharedSpec, privSpec}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetAppModes([]config.LLCMode{config.LLCShared, config.LLCPrivate}); err != nil {
		t.Fatal(err)
	}
	g.Warmup(5_000)
	rs := g.Run(20_000, 1)
	if len(rs.AppIPC) != 2 {
		t.Fatalf("AppIPC = %v, want 2 entries", rs.AppIPC)
	}
	if rs.AppIPC[0] <= 0 || rs.AppIPC[1] <= 0 {
		t.Errorf("both applications must make progress: %v", rs.AppIPC)
	}
	// Mixed modes cannot power-gate the MC-routers.
	if rs.GatedCycles != 0 {
		t.Error("MC-routers must stay powered with mixed per-app modes")
	}
}

func TestSetAppModesValidation(t *testing.T) {
	spec, _ := workload.ByAbbr("VA")
	cfg := config.Baseline()
	gen := workload.MustNewGenerator(spec, cfg, 1)
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetAppModes([]config.LLCMode{config.LLCShared, config.LLCShared}); err == nil {
		t.Error("mode count mismatch must be rejected")
	}
	if err := g.SetAppModes([]config.LLCMode{config.LLCAdaptive}); err == nil {
		t.Error("per-app adaptive mode must be rejected")
	}
	adaptiveCfg := config.Baseline()
	adaptiveCfg.LLCMode = config.LLCAdaptive
	ga, err := New(adaptiveCfg, workload.MustNewGenerator(spec, adaptiveCfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ga.SetAppModes([]config.LLCMode{config.LLCShared}); err == nil {
		t.Error("per-app modes must be rejected when the adaptive controller is active")
	}
}

// TestWarmupResetsStatistics verifies that Warmup clears measurements but
// keeps architectural state (caches stay warm).
func TestWarmupResetsStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	spec, _ := workload.ByAbbr("GEMM")
	cfg := config.Baseline()
	gen := workload.MustNewGenerator(spec, cfg, 1)
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	g.Warmup(15_000)
	valid := 0
	for _, s := range g.slices {
		valid += s.Tags().ValidLines()
		if s.Stats().Accesses != 0 {
			t.Fatal("warmup must clear LLC statistics")
		}
	}
	if valid == 0 {
		t.Error("warmup should leave the LLC warm")
	}
	rs := g.Run(10_000, 1)
	if rs.Instructions == 0 {
		t.Error("run after warmup made no progress")
	}
}

// TestKernelBoundariesTriggerAdaptiveReprofile checks Rule #3: kernel
// launches revert the adaptive LLC to shared and start a new profiling
// window.
func TestKernelBoundariesTriggerAdaptiveReprofile(t *testing.T) {
	rs := runBench(t, "AN", config.LLCAdaptive, nil) // AN has 6 kernels
	if len(rs.KernelBoundaries) == 0 {
		t.Fatal("expected kernel boundaries")
	}
	if rs.Controller.ProfileWindows < 2 {
		t.Errorf("profile windows = %d, want one per kernel launch (>= 2)", rs.Controller.ProfileWindows)
	}
}

// TestGPUFollowsControllerMode runs 3DC adaptive at adaptivesim's default
// scale and requires, at every kernel boundary with no transition draining or
// stalling, that the LLC is organized the way the controller wants. The
// 2,000-cycle window puts a Rule #3 reversion inside an S→P drain (cycle
// 27,500), which a GPU that dropped it would leave private for the rest of
// the run; the 500-cycle window makes decisions land mid-transition
// throughout.
func TestGPUFollowsControllerMode(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	spec, _ := workload.ByAbbr("3DC")
	for _, window := range []int{2_000, 500} {
		t.Run(fmt.Sprintf("window-%d", window), func(t *testing.T) {
			cfg := config.Baseline()
			cfg.LLCMode = config.LLCAdaptive
			cfg.ProfileWindowCycles = window
			g, err := New(cfg, workload.MustNewGenerator(spec, cfg, 1))
			if err != nil {
				t.Fatal(err)
			}
			g.Warmup(20_000)
			idle := 0
			rs := g.RunCheckpointed(120_000, spec.Kernels, func(m int) {
				if g.reconfigActive || g.cycle < g.stallUntil {
					return
				}
				idle++
				if g.mode != g.ctrl.Mode() {
					t.Errorf("kernel boundary %d (cycle %d): LLC %v, controller wants %v", m, g.cycle, g.mode, g.ctrl.Mode())
				}
			})
			if idle == 0 {
				t.Fatal("no kernel boundary found the GPU idle: nothing was checked")
			}
			if rs.ReconfigCount == 0 {
				t.Error("the adaptive run never reconfigured")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	a := runBench(t, "MM", config.LLCShared, nil)
	b := runBench(t, "MM", config.LLCShared, nil)
	if a.Instructions != b.Instructions || a.LLC.Accesses != b.LLC.Accesses {
		t.Errorf("same seed must reproduce the same run: %d/%d vs %d/%d",
			a.Instructions, a.LLC.Accesses, b.Instructions, b.LLC.Accesses)
	}
}
