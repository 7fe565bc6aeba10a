package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/pool"
	"repro/internal/sm"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// looptrace is an outside-in cycle loop: the simulator's components wired
// together through their exported methods only, in gpu.step's phase order,
// with a time.Now pair around each phase of each cycle. It exists to say
// which share of a cycle's host time each layer takes, which gpu.GPU cannot
// say about itself today. It covers the static shared and private
// organizations and a single kernel (no adaptive controller, no kernel
// boundaries), and stands in for ROADMAP's in-program phase profiler: a
// later benchmark change swaps the source and keeps the metric names.
//
// Its statistics must equal gpu.Run's on the same spec; loopDivergence says
// whether they do, which is how far the shares can be trusted.

// Loop phases, in execution order.
const (
	phSMTick = iota
	phInject
	phReqNoC
	phLLC
	phDRAM
	phReplyInject
	phRepNoC
	phSMComplete
	nPhases
)

type loopTrace struct {
	cfg     config.Config
	prog    workload.Program
	mapper  addrmap.Mapper
	sms     []*sm.SM
	slices  []*llc.Slice
	mcs     []*dram.Controller
	reqNet  noc.Net
	repNet  noc.Net
	reqPool *pool.FreeList[mem.Request]
	pktPool pool.FreeList[noc.Packet]
	private bool
	cycle   uint64

	phase [nPhases]time.Duration
}

// sharingWindow mirrors gpu's per-line sharer sampling period, which resets
// the LLC tag arrays' sharer sets.
const sharingWindow = 1000

func newLoopTrace(cfg config.Config, prog workload.Program) (*loopTrace, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LLCMode != config.LLCShared && cfg.LLCMode != config.LLCPrivate {
		return nil, fmt.Errorf("looptrace covers the static shared and private LLC, not %v", cfg.LLCMode)
	}
	mapper, err := newMapper(cfg)
	if err != nil {
		return nil, err
	}
	l := &loopTrace{cfg: cfg, prog: prog, mapper: mapper,
		reqPool: &pool.FreeList[mem.Request]{}, private: cfg.LLCMode == config.LLCPrivate}
	perCluster := cfg.SMsPerCluster()
	for i := 0; i < cfg.NumSMs; i++ {
		s := sm.New(i, i/perCluster, cfg)
		s.UseRequestPool(l.reqPool)
		l.sms = append(l.sms, s)
	}
	for i := 0; i < cfg.NumLLCSlices(); i++ {
		s := llc.NewSlice(i, i/cfg.LLCSlicesPerMC, i%cfg.LLCSlicesPerMC, cfg)
		s.UseRequestPool(l.reqPool)
		if l.private {
			s.SetWritePolicy(cache.WriteThrough)
		}
		l.slices = append(l.slices, s)
	}
	for i := 0; i < cfg.NumMemControllers; i++ {
		l.mcs = append(l.mcs, dram.NewController(i, cfg))
	}
	params := noc.ParamsFromConfig(cfg)
	if l.reqNet, err = noc.New(params, noc.Request); err != nil {
		return nil, err
	}
	if l.repNet, err = noc.New(params, noc.Reply); err != nil {
		return nil, err
	}
	if l.private {
		for _, n := range []noc.Net{l.reqNet, l.repNet} {
			if err := n.SetBypass(true); err != nil && !errors.Is(err, noc.ErrBypassUnsupported) {
				return nil, err
			}
		}
	}
	return l, nil
}

// newMapper builds the address mapper gpu.New builds for cfg.
func newMapper(cfg config.Config) (addrmap.Mapper, error) {
	scheme := addrmap.SchemePAE
	if cfg.Mapping == config.MappingHynix {
		scheme = addrmap.SchemeHynix
	}
	return addrmap.New(scheme, addrmap.Geometry{
		LineBytes:   cfg.LLCLineBytes,
		Channels:    cfg.NumMemControllers,
		SlicesPerMC: cfg.LLCSlicesPerMC,
		Banks:       cfg.BanksPerMC,
		RowBytes:    2048,
	})
}

func (l *loopTrace) sliceFor(req *mem.Request, loc addrmap.Location) int {
	if l.private {
		return loc.Channel*l.cfg.LLCSlicesPerMC + req.Cluster%l.cfg.LLCSlicesPerMC
	}
	return loc.Channel*l.cfg.LLCSlicesPerMC + loc.Slice
}

// run advances the machine by `cycles` cycles.
func (l *loopTrace) run(cycles uint64) {
	windowEnd := l.cycle + sharingWindow
	for end := l.cycle + cycles; l.cycle < end; {
		l.cycle++
		l.step()
		if l.cycle >= windowEnd {
			for _, s := range l.slices {
				s.Tags().ResetSharers()
			}
			windowEnd = l.cycle + sharingWindow
		}
	}
}

func (l *loopTrace) step() {
	t := time.Now()
	lap := func(ph int) {
		now := time.Now()
		l.phase[ph] += now.Sub(t)
		t = now
	}

	// 1. SMs issue instructions.
	for _, s := range l.sms {
		s.Tick(l.cycle, l.prog)
	}
	lap(phSMTick)

	// ... and hand their memory requests to the request NoC.
	reqFlits, writeFlits := l.cfg.RequestFlits(), l.cfg.ReplyFlits()
	for _, s := range l.sms {
		for {
			req, ok := s.PopRequest()
			if !ok {
				break
			}
			flits := reqFlits
			if req.Write {
				flits = writeFlits
			}
			pkt := l.pktPool.Get()
			pkt.ID, pkt.Src, pkt.Dst, pkt.Flits, pkt.Req = req.ID, req.SM, l.sliceFor(req, l.mapper.Map(req.Addr)), flits, req
			if !l.reqNet.Inject(pkt) {
				l.pktPool.Put(pkt)
				s.UnpopRequest(req)
				break
			}
		}
	}
	lap(phInject)

	// 2. Request network delivers to LLC slices.
	arrived := l.reqNet.Tick()
	lap(phReqNoC)
	for _, p := range arrived {
		l.slices[p.Dst].EnqueueRequest(p.Req)
		l.pktPool.Put(p)
	}

	// 3. LLC slices process requests and talk to DRAM.
	for _, s := range l.slices {
		s.Tick(l.cycle)
	}
	for _, s := range l.slices {
		for {
			d, ok := s.PopDRAMRequest()
			if !ok {
				break
			}
			loc := l.mapper.Map(d.Addr)
			req := dram.Request{
				ID:    uint64(s.ID())<<48 | uint64(d.Addr>>7),
				Bank:  loc.Bank,
				Row:   loc.Row,
				Write: d.Write,
				Meta:  dram.Meta{Slice: s.ID(), Addr: d.Addr, Fill: d.Fill},
			}
			if !l.mcs[s.MC()].Enqueue(req) {
				s.UnpopDRAMRequest(d)
				break
			}
		}
	}
	lap(phLLC)

	// 4. DRAM controllers.
	for _, mc := range l.mcs {
		for _, done := range mc.Tick() {
			if done.Req.Meta.Fill {
				l.slices[done.Req.Meta.Slice].DRAMComplete(done.Req.Meta.Addr)
			}
		}
	}
	lap(phDRAM)

	// 5. LLC replies into the reply network.
	flits := l.cfg.ReplyFlits()
	for _, s := range l.slices {
		for {
			r, ok := s.PopReply(l.cycle)
			if !ok {
				break
			}
			pkt := l.pktPool.Get()
			pkt.ID, pkt.Src, pkt.Dst, pkt.Flits, pkt.Reply = r.ReqID, s.ID(), r.SM, flits, r
			if !l.repNet.Inject(pkt) {
				l.pktPool.Put(pkt)
				s.UnpopReply(r)
				break
			}
		}
	}
	lap(phReplyInject)

	// 6. Reply network delivers to SMs.
	delivered := l.repNet.Tick()
	lap(phRepNoC)
	for _, p := range delivered {
		l.sms[p.Dst].CompleteLoad(p.Reply, l.cycle)
		l.pktPool.Put(p)
	}
	lap(phSMComplete)
}

// loopCounts are the totals the outside-in loop must share with gpu.Run.
type loopCounts struct {
	Instructions, LLCAccesses, DRAMRequests uint64
}

func (l *loopTrace) counts() loopCounts {
	var c loopCounts
	for _, s := range l.sms {
		c.Instructions += s.Stats().Instructions
	}
	for _, s := range l.slices {
		c.LLCAccesses += s.Stats().Accesses
	}
	for _, mc := range l.mcs {
		c.DRAMRequests += mc.Stats().Requests
	}
	return c
}

func countsOf(s gpu.RunStats) loopCounts {
	return loopCounts{s.Instructions, s.LLC.Accesses, s.DRAM.Requests}
}

// loopDivergence is the largest relative difference between two counts.
func loopDivergence(a, b loopCounts) float64 {
	rel := func(x, y uint64) float64 {
		if x == y {
			return 0
		}
		d := float64(x) - float64(y)
		if d < 0 {
			d = -d
		}
		return d / float64(max(x, y))
	}
	return max(rel(a.Instructions, b.Instructions), rel(a.LLCAccesses, b.LLCAccesses), rel(a.DRAMRequests, b.DRAMRequests))
}

// probeLoop runs spec's workload cold for `cycles` cycles through the
// outside-in loop and through gpu.Run, and reports the phase shares and how
// far the two agree.
func probeLoop(spec sweep.RunSpec, cycles uint64, o *roundOut) error {
	build := func() (workload.Program, error) {
		prog, _, err := sweep.BuildProgram(spec)
		return prog, err
	}
	prog, err := build()
	if err != nil {
		return err
	}
	l, err := newLoopTrace(spec.Config, prog)
	if err != nil {
		return err
	}
	t0 := time.Now()
	l.run(cycles)
	loopS := time.Since(t0).Seconds()

	if prog, err = build(); err != nil {
		return err
	}
	g, err := gpu.New(spec.Config, prog)
	if err != nil {
		return err
	}
	t0 = time.Now()
	ref := g.Run(cycles, 1)
	refS := time.Since(t0).Seconds()

	perCycle := func(phases ...int) float64 {
		var d time.Duration
		for _, ph := range phases {
			d += l.phase[ph]
		}
		return us(d) / float64(cycles)
	}
	var total time.Duration
	for _, d := range l.phase {
		total += d
	}
	share := func(phases ...int) float64 { return ratio(perCycle(phases...), us(total)/float64(cycles)) }

	o.obs("sm.tick_us_per_cycle", perCycle(phSMTick))
	o.obs("sm.complete_us_per_cycle", perCycle(phSMComplete))
	o.obs("sm.share", share(phSMTick, phSMComplete))
	o.obs("gpu.inject_us_per_cycle", perCycle(phInject, phReplyInject))
	o.obs("noc.req_tick_us_per_cycle", perCycle(phReqNoC))
	o.obs("noc.rep_tick_us_per_cycle", perCycle(phRepNoC))
	o.obs("noc.share", share(phReqNoC, phRepNoC))
	o.obs("llc.tick_us_per_cycle", perCycle(phLLC))
	o.obs("llc.share", share(phLLC))
	o.obs("dram.tick_us_per_cycle", perCycle(phDRAM))
	o.obs("dram.share", share(phDRAM))
	o.obs("trace.loop_divergence", loopDivergence(l.counts(), countsOf(ref)))
	o.obs("trace.loop_overhead_pct", 100*ratio(loopS-refS, refS))
	return nil
}
