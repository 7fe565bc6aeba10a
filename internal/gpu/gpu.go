// Package gpu wires the simulator components into a complete GPU:
// streaming multiprocessors with private L1 caches, a request/reply crossbar
// NoC, memory-side LLC slices, GDDR5 memory controllers, and (optionally)
// the adaptive-LLC controller that is the paper's contribution.
//
// The simulator is cycle-driven and single-threaded. One Run executes a
// workload for a fixed number of core cycles and returns the statistics the
// experiment harness needs to regenerate the paper's figures: IPC, LLC miss
// rates and response rate, per-slice access distributions, inter-cluster
// sharing histograms, NoC activity, DRAM traffic and adaptive-controller
// behaviour.
//
// The GPU is agnostic to where its instruction stream comes from: any
// workload.Program drives it — the synthetic Table 2 generators or a
// multi-program co-execution of them.
package gpu

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/pool"
	"repro/internal/sm"
	"repro/internal/workload"
)

// appAssigner is implemented by multi-program workloads that pin
// applications to SMs.
type appAssigner interface {
	AppOf(sm int) int
	Apps() int
}

// GPU is one simulated GPU instance.
type GPU struct {
	cfg    config.Config
	prog   workload.Program
	mapper addrmap.Mapper

	sms    []*sm.SM
	slices []*llc.Slice
	mcs    []*dram.Controller
	reqNet noc.Net
	repNet noc.Net

	// ctrl, when the LLC is adaptive, owns the organization: mode follows
	// ctrl.Mode() through a transition whenever they differ (followController).
	ctrl *core.Controller
	// mode is the LLC organization currently in effect (shared or private).
	mode config.LLCMode
	// appModes overrides the organization per application in multi-program
	// runs (indexed by AppID). Empty means `mode` applies to all traffic.
	appModes []config.LLCMode
	smApp    []int
	numApps  int

	cycle uint64
	// runStart is the cycle at which the current (or most recent) run loop
	// was entered; kernel boundaries fall at runStart + m*kernelLen. It is
	// checkpointed so a resumed run recomputes the same boundary schedule.
	runStart uint64

	// Reconfiguration state machine: a transition drains to the organization
	// mode is not, then stalls until stallUntil.
	reconfigActive  bool
	reconfigStarted uint64
	stallUntil      uint64

	// Free-list pools shared by the whole GPU: SMs acquire requests that the
	// LLC slices release once answered, and the injection paths recycle NoC
	// packets after delivery.
	reqPool *pool.FreeList[mem.Request]
	pktPool pool.FreeList[noc.Packet]

	// act is which components the next cycle visits (active.go).
	act activity

	// Collectors.
	gatedCycles      uint64
	stallCycles      uint64
	reconfigCount    uint64
	sharerBuckets    [4]uint64 // 1 / 2 / 3-4 / 5-8+ clusters
	sharerTotal      uint64
	sharerWindowEnd  uint64
	kernelBoundaries []uint64
	// modeCycles counts cycles spent in each LLC organization, indexed by
	// config.LLCMode (a fixed array: this is incremented every cycle).
	modeCycles [3]uint64
}

// New constructs a GPU for the given configuration and workload program.
func New(cfg config.Config, prog workload.Program) (*GPU, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	if prog == nil {
		return nil, fmt.Errorf("gpu: nil workload program")
	}

	geom := addrmap.Geometry{
		LineBytes:   cfg.LLCLineBytes,
		Channels:    cfg.NumMemControllers,
		SlicesPerMC: cfg.LLCSlicesPerMC,
		Banks:       cfg.BanksPerMC,
		RowBytes:    2048,
	}
	scheme := addrmap.SchemePAE
	if cfg.Mapping == config.MappingHynix {
		scheme = addrmap.SchemeHynix
	}
	mapper, err := addrmap.New(scheme, geom)
	if err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}

	g := &GPU{
		cfg:     cfg,
		prog:    prog,
		mapper:  mapper,
		mode:    config.LLCShared,
		reqPool: &pool.FreeList[mem.Request]{},
		numApps: 1,
	}

	// SMs.
	smsPerCluster := cfg.SMsPerCluster()
	g.sms = make([]*sm.SM, cfg.NumSMs)
	g.smApp = make([]int, cfg.NumSMs)
	for i := range g.sms {
		g.sms[i] = sm.New(i, i/smsPerCluster, cfg)
		g.sms[i].UseRequestPool(g.reqPool)
	}
	if assigner, ok := prog.(appAssigner); ok {
		g.numApps = assigner.Apps()
		for i := range g.sms {
			g.smApp[i] = assigner.AppOf(i)
			g.sms[i].SetApp(g.smApp[i])
		}
	}

	// LLC slices.
	g.slices = make([]*llc.Slice, cfg.NumLLCSlices())
	for i := range g.slices {
		g.slices[i] = llc.NewSlice(i, i/cfg.LLCSlicesPerMC, i%cfg.LLCSlicesPerMC, cfg)
		g.slices[i].UseRequestPool(g.reqPool)
	}

	// Memory controllers.
	g.mcs = make([]*dram.Controller, cfg.NumMemControllers)
	for i := range g.mcs {
		g.mcs[i] = dram.NewController(i, cfg)
	}

	// NoC.
	params := noc.ParamsFromConfig(cfg)
	g.reqNet, err = noc.New(params, noc.Request)
	if err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	g.repNet, err = noc.New(params, noc.Reply)
	if err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}

	// LLC organization.
	switch cfg.LLCMode {
	case config.LLCShared:
		g.mode = config.LLCShared
	case config.LLCPrivate:
		if err := g.applyMode(config.LLCPrivate); err != nil {
			return nil, err
		}
	case config.LLCAdaptive:
		ctrl, err := core.NewController(cfg)
		if err != nil {
			return nil, fmt.Errorf("gpu: %w", err)
		}
		g.ctrl = ctrl
	}
	g.activateAll()
	return g, nil
}

// SetAppModes fixes the LLC organization per application for multi-program
// runs (Figure 9/15): application i's requests use appModes[i]. The
// MC-routers can only be bypassed when every application runs private.
func (g *GPU) SetAppModes(modes []config.LLCMode) error {
	if g.cfg.LLCMode == config.LLCAdaptive {
		return fmt.Errorf("gpu: per-app modes are incompatible with the adaptive controller")
	}
	if len(modes) != g.numApps {
		return fmt.Errorf("gpu: %d app modes for %d applications", len(modes), g.numApps)
	}
	for _, m := range modes {
		if m != config.LLCShared && m != config.LLCPrivate {
			return fmt.Errorf("gpu: per-app mode must be shared or private, got %v", m)
		}
	}
	g.appModes = append([]config.LLCMode(nil), modes...)
	return g.applyMode(modes...)
}

// applyMode switches the physical LLC organization immediately to serve the
// given views: one for a whole-GPU mode (at construction for static private
// runs, at the end of a reconfiguration for adaptive runs), one per
// application for SetAppModes. Any private view forces write-through slices,
// so the flush-based coherence of the private organization stays correct;
// the MC-routers are bypassed, and the GPU organized private, only when
// every view is private — a shared view routes requests across clusters.
func (g *GPU) applyMode(views ...config.LLCMode) error {
	anyPrivate, allPrivate := false, true
	for _, m := range views {
		if m == config.LLCPrivate {
			anyPrivate = true
		} else {
			allPrivate = false
		}
	}
	policy := cache.WriteBack
	if anyPrivate {
		policy = cache.WriteThrough
	}
	for _, s := range g.slices {
		s.SetWritePolicy(policy)
	}
	if err := g.setBypass(allPrivate); err != nil {
		return err
	}
	g.mode = config.LLCShared
	if allPrivate {
		g.mode = config.LLCPrivate
	}
	return nil
}

// setBypass toggles MC-router bypass on both networks where supported; on
// topologies without a bypassable stage the private organization still
// works, it just cannot power-gate anything.
func (g *GPU) setBypass(enable bool) error {
	for _, n := range []noc.Net{g.reqNet, g.repNet} {
		if err := n.SetBypass(enable); err != nil {
			if err == noc.ErrBypassUnsupported {
				continue
			}
			return fmt.Errorf("gpu: %w", err)
		}
	}
	return nil
}

// sliceFor returns the global LLC slice index a request targets, following
// the paper's indexing: under a shared LLC the slice is chosen by address
// bits; under a private LLC it is the requester's cluster's slice within the
// address's home memory controller.
func (g *GPU) sliceFor(req *mem.Request, loc addrmap.Location) int {
	mode := g.mode
	if len(g.appModes) > 0 && req.AppID < len(g.appModes) {
		mode = g.appModes[req.AppID]
	}
	if mode == config.LLCPrivate {
		return loc.Channel*g.cfg.LLCSlicesPerMC + req.Cluster%g.cfg.LLCSlicesPerMC
	}
	return loc.Channel*g.cfg.LLCSlicesPerMC + loc.Slice
}
