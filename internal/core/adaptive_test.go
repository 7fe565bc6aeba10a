package core

import (
	"math/rand"
	"testing"

	"repro/internal/config"
)

func adaptiveCfg() config.Config {
	cfg := config.Baseline().Normalize()
	cfg.LLCMode = config.LLCAdaptive
	return cfg
}

func newController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(adaptiveCfg())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerValidation(t *testing.T) {
	cfg := config.Baseline()
	if _, err := NewController(cfg); err == nil {
		t.Error("controller must require LLCAdaptive mode")
	}
	cfg = adaptiveCfg()
	cfg.NumSMs = 0
	if _, err := NewController(cfg); err == nil {
		t.Error("invalid config must be rejected")
	}
}

func TestControllerStartsSharedAndProfiling(t *testing.T) {
	c := newController(t)
	if c.mode != config.LLCShared {
		t.Errorf("initial mode = %v, want shared", c.mode)
	}
	if !c.profiling {
		t.Error("controller should start in a profiling window")
	}
	if c.Stats().ProfileWindows != 1 {
		t.Errorf("profile windows = %d, want 1", c.Stats().ProfileWindows)
	}
}

func TestHardwareBudget(t *testing.T) {
	c := newController(t)
	// The paper quotes 448 bytes total (432 B ATD + 16 B LSP counters). Our
	// ATD accounting is slightly different but must stay in the same range.
	if got := c.atd.HardwareBytes() + c.cfg.NumMemControllers*2; got < 400 || got > 1000 {
		t.Errorf("hardware budget = %d B, want a few hundred bytes (paper: 448)", got)
	}
}

// feed drives a synthetic request stream into the controller during its
// profiling window and then ticks past the window end; it reports whether the
// controller switched to private.
//
// interCluster selects whether consecutive accesses to the same line come
// from different clusters (true) or always the same cluster (false);
// hotLines is the number of distinct hot lines (smaller means a more
// concentrated stream and a lower shared-mode LSP).
func feed(t *testing.T, c *Controller, interCluster bool, hotLines int, accesses int) bool {
	t.Helper()
	cfg := adaptiveCfg()
	rng := rand.New(rand.NewSource(1))
	lineBytes := uint64(cfg.LLCLineBytes)
	var cycle uint64
	// The LLC typically receives several requests per cycle; feed four
	// observations per tick so the profiling window sees a realistic volume.
	const perCycle = 4
	for i := 0; i < accesses; i += perCycle {
		cycle++
		for j := 0; j < perCycle; j++ {
			line := uint64(rng.Intn(hotLines))
			addr := line * lineBytes
			cluster := 0
			if interCluster {
				cluster = rng.Intn(cfg.NumClusters)
			}
			// Home MC and shared slice derived from a hash of the line
			// number, mimicking the decorrelated PAE address mapping (slice
			// selection must not alias with the slice's set index bits).
			hashed := line * 2654435761
			homeMC := int(hashed) % cfg.NumMemControllers
			sharedSlice := int(hashed) % cfg.NumLLCSlices()
			c.ObserveRequest(addr, cluster, homeMC, sharedSlice)
		}
		if c.Tick(cycle); c.Mode() == config.LLCPrivate {
			return true
		}
	}
	// Run out the remainder of the profiling window.
	for cycle < uint64(cfg.ProfileWindowCycles)+10 {
		cycle++
		if c.Tick(cycle); c.Mode() == config.LLCPrivate {
			return true
		}
	}
	return false
}

// TestRule2ChoosesPrivateForConcentratedSharing models a private-friendly
// workload: a small hot set of read-only lines touched by all clusters. The
// controller must predict higher bandwidth under private caching (higher
// LSP, similar miss rate) and switch.
func TestRule2ChoosesPrivateForConcentratedSharing(t *testing.T) {
	c := newController(t)
	if !feed(t, c, true, 8, 40000) {
		t.Fatal("expected a switch to private")
	}
	if st := c.Stats(); st.Rule1Decisions+st.Rule2Decisions != 1 || st.SwitchesToPrivate != 1 {
		t.Errorf("stats = %+v, want one switch to private by rule 1 or rule 2", st)
	}
	p := c.LastPrediction()
	if p.PrivateLSP <= p.SharedLSP {
		t.Errorf("private LSP (%.1f) should exceed shared LSP (%.1f) for a concentrated stream",
			p.PrivateLSP, p.SharedLSP)
	}
}

// TestStaysSharedForCapacitySensitiveStream models a shared-friendly
// workload: a footprint larger than a private slice's reach with poor
// cluster affinity, spread over all slices. The private miss-rate estimate
// rises sharply, the bandwidth model favours shared, and the controller must
// not switch.
func TestStaysSharedForCapacitySensitiveStream(t *testing.T) {
	c := newController(t)
	// 60K distinct lines (~7.5 MB) accessed by random clusters: replicating
	// them 8x cannot fit, and accesses spread over all 64 slices so shared
	// LSP is already high.
	if feed(t, c, true, 60000, 45000) {
		t.Fatalf("controller switched (%+v) for a capacity-sensitive stream; it must stay shared", c.Stats())
	}
	if c.Stats().StayShared == 0 {
		t.Error("StayShared should have been recorded")
	}
	p := c.LastPrediction()
	if p.PrivateMissRate <= p.SharedMissRate {
		t.Errorf("private miss rate (%.2f) should exceed shared (%.2f)", p.PrivateMissRate, p.SharedMissRate)
	}
}

// TestRule1ChoosesPrivateForClusterAffineStream models a neutral workload:
// every line is only ever touched by one cluster, so private and shared miss
// rates match and Rule #1 switches to private for the NoC energy saving.
func TestRule1ChoosesPrivateForClusterAffineStream(t *testing.T) {
	c := newController(t)
	if !feed(t, c, false, 256, 40000) {
		t.Fatal("expected a switch to private")
	}
	if st := c.Stats(); st.Rule1Decisions != 1 {
		t.Errorf("Rule1Decisions = %d, want 1 (similar miss rates)", st.Rule1Decisions)
	}
	p := c.LastPrediction()
	if diff := p.PrivateMissRate - p.SharedMissRate; diff > 0.02 {
		t.Errorf("miss-rate difference %.3f should be within the 2%% similarity threshold", diff)
	}
}

func TestIdleWindowStaysShared(t *testing.T) {
	c := newController(t)
	for cycle := uint64(1); cycle <= uint64(adaptiveCfg().ProfileWindowCycles)+5; cycle++ {
		if c.Tick(cycle); c.Mode() != config.LLCShared {
			t.Fatalf("idle profiling window must not trigger a switch, got %v at cycle %d", c.Mode(), cycle)
		}
	}
}

func TestEpochReversion(t *testing.T) {
	cfg := adaptiveCfg()
	cfg.EpochCycles = 100_000
	cfg.ProfileWindowCycles = 10_000
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Force private via a cluster-affine stream.
	rng := rand.New(rand.NewSource(2))
	var cycle uint64
	for i := 0; i < cfg.ProfileWindowCycles+10; i++ {
		cycle++
		line := uint64(rng.Intn(64))
		c.ObserveRequest(line*128, 0, int(line)%8, int(line)%64)
		c.Tick(cycle)
	}
	if c.Mode() != config.LLCPrivate {
		t.Fatal("setup failed: controller did not go private")
	}
	// Up to the epoch boundary the controller stays private; there Rule #3
	// must revert it to shared and start a new profiling window.
	for cycle < uint64(cfg.EpochCycles)-1 {
		cycle++
		c.Tick(cycle)
	}
	if c.Mode() != config.LLCPrivate {
		t.Fatalf("controller left private at cycle %d, before the epoch boundary", cycle)
	}
	for cycle < uint64(cfg.EpochCycles)+10 {
		cycle++
		c.Tick(cycle)
	}
	if c.Mode() != config.LLCShared {
		t.Fatalf("expected epoch reversion to shared, mode is %v", c.Mode())
	}
	if !c.profiling {
		t.Error("a new profiling window should begin after the epoch boundary")
	}
	st := c.Stats()
	if st.SwitchesToPrivate != 1 || st.SwitchesToShared != 1 {
		t.Errorf("switch counts = %d/%d, want 1/1", st.SwitchesToPrivate, st.SwitchesToShared)
	}
	if st.PrivateCycles == 0 || st.SharedCycles == 0 {
		t.Error("both mode-residency counters should be non-zero")
	}
}

func TestKernelLaunchReversion(t *testing.T) {
	c := newController(t)
	// Force private.
	if !feed(t, c, false, 64, 40000) {
		t.Fatal("setup failed: no switch to private")
	}
	c.OnKernelLaunch(60000)
	if c.Mode() != config.LLCShared || c.Stats().SwitchesToShared != 1 {
		t.Fatalf("expected kernel reversion, mode %v after %d switches to shared", c.Mode(), c.Stats().SwitchesToShared)
	}
	if !c.profiling {
		t.Error("kernel launch should start a new profiling window")
	}
	// A kernel launch while already shared re-profiles without a switch.
	windows := c.Stats().ProfileWindows
	c.OnKernelLaunch(70000)
	if st := c.Stats(); c.Mode() != config.LLCShared || st.SwitchesToShared != 1 || st.ProfileWindows != windows+1 {
		t.Errorf("a launch while shared: mode %v, %d switches to shared, %d windows (want shared, 1, %d)",
			c.Mode(), st.SwitchesToShared, st.ProfileWindows, windows+1)
	}
}

func TestObserveIgnoredOutsideProfiling(t *testing.T) {
	cfg := adaptiveCfg()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the profiling window with no traffic.
	for cycle := uint64(1); cycle <= uint64(cfg.ProfileWindowCycles)+1; cycle++ {
		c.Tick(cycle)
	}
	if c.profiling {
		t.Fatal("profiling window should have ended")
	}
	c.ObserveRequest(0x1000, 0, 0, 0)
	if c.LastPrediction().WindowAccesses != 0 {
		t.Error("observations outside the profiling window must be ignored")
	}
}

func TestReportReconfigOverhead(t *testing.T) {
	c := newController(t)
	c.ReportReconfigOverhead(123)
	c.ReportReconfigOverhead(77)
	if c.Stats().ReconfigCycles != 200 {
		t.Errorf("ReconfigCycles = %d, want 200", c.Stats().ReconfigCycles)
	}
}

func TestReconfigCost(t *testing.T) {
	cfg := config.Baseline().Normalize()
	clean := ReconfigCost(cfg, 0)
	if clean == 0 {
		t.Fatal("even a clean transition has gating + invalidation cost")
	}
	dirty := ReconfigCost(cfg, 10_000)
	if dirty <= clean {
		t.Error("dirty lines must add write-back time")
	}
	// The paper quotes a couple hundred to a couple thousand cycles.
	if clean > 2000 {
		t.Errorf("clean transition cost %d cycles, expected a few hundred", clean)
	}
	if dirty > 10_000 {
		t.Errorf("dirty transition cost %d cycles, expected a couple thousand at most", dirty)
	}
	// Degenerate config without bandwidth information still terminates.
	weird := cfg
	weird.BusBytesPerCycle = 0
	weird.DRAMBandwidthGBs = 0
	if ReconfigCost(weird, 100) == 0 {
		t.Error("cost should remain positive")
	}
}

func TestLSPHelper(t *testing.T) {
	if lsp([]uint64{0, 0}) != 0 {
		t.Error("idle lsp should be 0")
	}
	if lsp([]uint64{10, 0, 0, 0}) != 1 {
		t.Error("hotspot lsp should be 1")
	}
	if lsp([]uint64{5, 5, 5, 5}) != 4 {
		t.Error("balanced lsp should equal slice count")
	}
}
