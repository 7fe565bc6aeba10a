// Package core implements the paper's primary contribution: the adaptive
// memory-side last-level cache controller (Section 4).
//
// The controller runs alongside a GPU that starts every epoch (and every
// kernel) with a conventional shared LLC. During a short profiling window it
// observes the request stream and estimates what the LLC miss rate and the
// delivered memory-system bandwidth would be if the LLC were reconfigured as
// a private-per-cluster cache, using two lightweight hardware mechanisms:
//
//   - an Auxiliary Tag Directory (ATD) that samples a handful of sets of one
//     LLC slice and remembers which SM-router (cluster) last touched each
//     line, yielding shared- and private-mode miss-rate estimates
//     (dynamic set sampling, §4.4), and
//   - LLC-slice-parallelism (LSP) counters that record how requests would
//     spread over slices under each organization, feeding the bandwidth
//     model BW = LLChit·LSP·LLCBW + LLCmiss·MEMBW.
//
// At the end of the window the transition rules of §4.3 are applied:
//
//	Rule #1 (S→P): switch to private if both organizations have similar
//	               miss rates (the private mode then saves NoC energy by
//	               power-gating the MC-routers for free).
//	Rule #2 (S→P): switch to private if the bandwidth model predicts higher
//	               delivered bandwidth under private caching.
//	Rule #3 (P→S): revert to shared at every new epoch and kernel launch.
//
// The controller owns the organization; the GPU follows it. Mode is what
// the rules currently want; a GPU that is neither draining nor stalled and
// whose LLC is organized otherwise starts a transition. The GPU owns the
// machinery of draining the NoC, flushing the LLC and power-gating the
// MC-routers, and reports the overhead it incurred back to the controller for
// accounting.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
)

// Prediction holds the profiling-window estimates.
type Prediction struct {
	SharedMissRate   float64
	PrivateMissRate  float64
	SharedLSP        float64
	PrivateLSP       float64
	SharedBandwidth  float64 // bytes per cycle
	PrivateBandwidth float64
	WindowAccesses   uint64
}

// Stats summarizes controller activity.
type Stats struct {
	ProfileWindows    uint64
	SwitchesToPrivate uint64
	SwitchesToShared  uint64
	Rule1Decisions    uint64
	Rule2Decisions    uint64
	StayShared        uint64
	ReconfigCycles    uint64 // total stall cycles charged by the GPU for transitions
	PrivateCycles     uint64 // cycles spent with the LLC in private mode
	SharedCycles      uint64 // cycles spent with the LLC in shared mode
}

// Controller is the adaptive-LLC decision engine.
type Controller struct {
	cfg config.Config

	mode config.LLCMode // the organization the rules want (shared or private)

	atd *cache.ATD
	// privPerMC counts profiling-window requests originating from cluster 0,
	// per home memory controller; under private caching those requests
	// would map to slice (mc, 0). The paper uses 8 16-bit counters at the
	// first cluster's SM-router.
	privPerMC []uint64
	// sharedPerSlice counts profiling-window requests per (global) LLC slice
	// under the currently-running shared organization.
	sharedPerSlice []uint64

	// LSP is evaluated over short sub-windows and averaged: the paper's
	// 50K-cycle windows observe long-lived hot slices, whereas the
	// scaled-down runs used here see the hot set drift across slices within
	// one window, which would overstate the parallelism a shared LLC can
	// actually exploit at any instant. The sub-window accumulation uses the
	// same counters, periodically folded into a running average.
	subWindowCycles uint64
	subWindowEnd    uint64
	sharedLSPSum    float64
	privateLSPSum   float64
	lspWindows      uint64

	profiling   bool
	windowStart uint64
	epochStart  uint64
	lastPred    Prediction
	stats       Stats
	cycle       uint64
}

// NewController creates the adaptive controller for the given configuration.
// The configuration's LLCMode must be LLCAdaptive.
func NewController(cfg config.Config) (*Controller, error) {
	if cfg.LLCMode != config.LLCAdaptive {
		return nil, fmt.Errorf("core: controller requires LLCAdaptive mode, got %v", cfg.LLCMode)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c := &Controller{
		cfg:             cfg,
		mode:            config.LLCShared,
		privPerMC:       make([]uint64, cfg.NumMemControllers),
		sharedPerSlice:  make([]uint64, cfg.NumLLCSlices()),
		subWindowCycles: 250,
	}
	c.atd = cache.NewATD(cfg.ATDSampledSets, cfg.LLCSetsPerSlice(), cfg.LLCWays, cfg.LLCLineBytes, cfg.NumClusters)
	c.startProfile(0)
	c.epochStart = 0
	return c, nil
}

// Mode returns the LLC organization the controller wants: shared or
// private.
func (c *Controller) Mode() config.LLCMode { return c.mode }

// Stats returns a snapshot of controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// LastPrediction returns the most recent profiling-window estimates.
func (c *Controller) LastPrediction() Prediction { return c.lastPred }

func (c *Controller) startProfile(cycle uint64) {
	c.profiling = true
	c.windowStart = cycle
	c.subWindowEnd = cycle + c.subWindowCycles
	c.sharedLSPSum, c.privateLSPSum, c.lspWindows = 0, 0, 0
	c.atd.Reset()
	for i := range c.privPerMC {
		c.privPerMC[i] = 0
	}
	for i := range c.sharedPerSlice {
		c.sharedPerSlice[i] = 0
	}
	c.stats.ProfileWindows++
}

// foldLSPSubWindow folds the current sub-window's slice counters into the
// running LSP averages and clears them.
func (c *Controller) foldLSPSubWindow() {
	sharedLSP := lsp(c.sharedPerSlice)
	privateLSP := lsp(c.privPerMC) * float64(c.cfg.NumClusters)
	if sharedLSP > 0 || privateLSP > 0 {
		c.sharedLSPSum += sharedLSP
		c.privateLSPSum += privateLSP
		c.lspWindows++
	}
	for i := range c.privPerMC {
		c.privPerMC[i] = 0
	}
	for i := range c.sharedPerSlice {
		c.sharedPerSlice[i] = 0
	}
}

// ObserveRequest feeds one LLC-bound request into the profiling machinery.
// The GPU calls it for every request injected into the request network while
// the LLC is shared; the controller ignores it outside profiling windows.
//
// addr is the line address, cluster the originating SM cluster, homeMC the
// memory controller serving the address, and sharedSlice the global slice
// index the request targets under the current shared organization.
func (c *Controller) ObserveRequest(addr uint64, cluster, homeMC, sharedSlice int) {
	if !c.profiling || c.mode != config.LLCShared {
		return
	}
	// The ATD shadows the sampled sets of a single LLC slice (slice 0), as
	// in the paper; only requests homed on that slice update it.
	if sharedSlice == 0 {
		c.atd.Access(addr, cluster)
	}
	if cluster == 0 {
		c.privPerMC[homeMC]++
	}
	if sharedSlice >= 0 && sharedSlice < len(c.sharedPerSlice) {
		c.sharedPerSlice[sharedSlice]++
	}
}

// OnKernelLaunch implements Rule #3 for kernel boundaries.
func (c *Controller) OnKernelLaunch(cycle uint64) { c.revert(cycle) }

// revert applies Rule #3: the LLC reverts to shared and a new profiling
// window begins.
func (c *Controller) revert(cycle uint64) {
	if c.mode == config.LLCPrivate {
		c.mode = config.LLCShared
		c.stats.SwitchesToShared++
	}
	c.startProfile(cycle)
}

// ReportReconfigOverhead lets the GPU charge the stall cycles a transition
// actually cost (draining, write-backs, power-gating).
func (c *Controller) ReportReconfigOverhead(cycles uint64) {
	c.stats.ReconfigCycles += cycles
}

// Tick advances the controller by one cycle, applying Rule #3 at epoch
// boundaries and Rules #1 and #2 at the end of a profiling window.
func (c *Controller) Tick(cycle uint64) {
	c.cycle = cycle
	if c.mode == config.LLCPrivate {
		c.stats.PrivateCycles++
	} else {
		c.stats.SharedCycles++
	}

	// Rule #3: epoch boundary — revert to shared and re-profile.
	if cycle >= c.epochStart+uint64(c.cfg.EpochCycles) {
		c.epochStart = cycle
		c.revert(cycle)
		return
	}

	if c.profiling && cycle >= c.subWindowEnd {
		c.foldLSPSubWindow()
		c.subWindowEnd = cycle + c.subWindowCycles
	}

	// End of a profiling window: apply Rules #1 and #2.
	if c.profiling && c.mode == config.LLCShared &&
		cycle >= c.windowStart+uint64(c.cfg.ProfileWindowCycles) {
		c.foldLSPSubWindow()
		c.profiling = false
		c.decide()
	}
}

// decide evaluates the transition rules at the end of a profiling window.
func (c *Controller) decide() {
	pred := c.predict()
	c.lastPred = pred

	switch {
	case pred.WindowAccesses == 0:
		// An idle window gives the model nothing to work with; stay shared.
		c.stats.StayShared++
	case pred.PrivateMissRate-pred.SharedMissRate <= c.cfg.MissRateSimilarity:
		// Rule #1: similar miss rates -> private (saves NoC energy at no cost).
		c.mode = config.LLCPrivate
		c.stats.SwitchesToPrivate++
		c.stats.Rule1Decisions++
	case pred.PrivateBandwidth > pred.SharedBandwidth:
		// Rule #2: higher predicted bandwidth -> private.
		c.mode = config.LLCPrivate
		c.stats.SwitchesToPrivate++
		c.stats.Rule2Decisions++
	default:
		c.stats.StayShared++
	}
}

// predict evaluates the miss-rate and bandwidth models from the profiling
// counters.
func (c *Controller) predict() Prediction {
	p := Prediction{
		SharedMissRate:  c.atd.SharedMissRate(),
		PrivateMissRate: c.atd.PrivateMissRate(),
		WindowAccesses:  c.atd.SampledAccesses(),
	}
	// Private LSP: requests from cluster 0 per memory controller approximate
	// the per-slice distribution of every cluster's private slices; scaling
	// by the cluster count extends the measurement to all N slices. Both LSP
	// figures are averages over the profiling window's sub-windows.
	if c.lspWindows > 0 {
		p.SharedLSP = c.sharedLSPSum / float64(c.lspWindows)
		p.PrivateLSP = c.privateLSPSum / float64(c.lspWindows)
	}

	llcBW := c.sliceBandwidth()
	memBW := c.memoryBandwidth()
	p.SharedBandwidth = (1-p.SharedMissRate)*p.SharedLSP*llcBW + p.SharedMissRate*memBW
	p.PrivateBandwidth = (1-p.PrivateMissRate)*p.PrivateLSP*llcBW + p.PrivateMissRate*memBW
	return p
}

// sliceBandwidth returns the raw bandwidth of a single LLC slice in bytes
// per cycle: one cache line per reply serialized over the reply network
// channel.
func (c *Controller) sliceBandwidth() float64 {
	return float64(c.cfg.LLCLineBytes) / float64(c.cfg.ReplyFlits())
}

// memoryBandwidth returns the raw DRAM bandwidth in bytes per core cycle.
func (c *Controller) memoryBandwidth() float64 {
	cfg := c.cfg.Normalize()
	return float64(cfg.BusBytesPerCycle * cfg.NumMemControllers)
}

func lsp(counts []uint64) float64 {
	var sum, max uint64
	for _, v := range counts {
		sum += v
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 0
	}
	return float64(sum) / float64(max)
}
