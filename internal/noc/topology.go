package noc

import (
	"fmt"

	"repro/internal/config"
)

// Direction selects which of the GPU's two unidirectional networks is built.
type Direction int

const (
	// Request is the SM -> LLC-slice network.
	Request Direction = iota
	// Reply is the LLC-slice -> SM network.
	Reply
)

func (d Direction) String() string {
	if d == Reply {
		return "reply"
	}
	return "request"
}

// Params collects the topology-relevant subset of the GPU configuration.
type Params struct {
	Topology       config.NoCTopology
	NumSMs         int
	NumClusters    int
	NumMCs         int
	SlicesPerMC    int
	Concentration  int
	BufferFlits    int // input buffer capacity per port (VCs * flits per VC)
	RouterPipeline int
	LinkLatency    int
	IdealLatency   int // fixed latency for the ideal network
}

// ParamsFromConfig extracts NoC parameters from a GPU configuration.
func ParamsFromConfig(cfg config.Config) Params {
	return Params{
		Topology:       cfg.NoC,
		NumSMs:         cfg.NumSMs,
		NumClusters:    cfg.NumClusters,
		NumMCs:         cfg.NumMemControllers,
		SlicesPerMC:    cfg.LLCSlicesPerMC,
		Concentration:  cfg.Concentration,
		BufferFlits:    cfg.VCsPerPort * cfg.FlitsPerVC,
		RouterPipeline: cfg.RouterPipeline,
		LinkLatency:    cfg.LinkLatency,
		IdealLatency:   cfg.RouterPipeline + cfg.LinkLatency,
	}
}

func (p Params) numSlices() int     { return p.NumMCs * p.SlicesPerMC }
func (p Params) smsPerCluster() int { return p.NumSMs / p.NumClusters }

func (p Params) validate() error {
	if p.NumSMs <= 0 || p.NumClusters <= 0 || p.NumMCs <= 0 || p.SlicesPerMC <= 0 {
		return fmt.Errorf("noc: invalid params %+v", p)
	}
	if p.NumSMs%p.NumClusters != 0 {
		return fmt.Errorf("noc: NumSMs (%d) not divisible by NumClusters (%d)", p.NumSMs, p.NumClusters)
	}
	if p.BufferFlits <= 0 {
		return fmt.Errorf("noc: BufferFlits must be positive")
	}
	if p.Topology == config.NoCConcentrated {
		if p.Concentration <= 0 ||
			p.NumSMs%p.Concentration != 0 || p.numSlices()%p.Concentration != 0 {
			return fmt.Errorf("noc: concentration %d does not divide SMs (%d) and slices (%d)",
				p.Concentration, p.NumSMs, p.numSlices())
		}
	}
	return nil
}

// New builds the network for the given direction and topology.
func New(p Params, dir Direction) (Net, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch p.Topology {
	case config.NoCFull:
		return newSingleStage(p, dir, 1), nil
	case config.NoCConcentrated:
		return newSingleStage(p, dir, p.Concentration), nil
	case config.NoCHierarchical:
		return newHierarchical(p, dir), nil
	case config.NoCIdeal:
		return newIdeal(p, dir), nil
	default:
		return nil, fmt.Errorf("noc: unknown topology %v", p.Topology)
	}
}

// MustNew is New for validated configurations; it panics on error.
func MustNew(p Params, dir Direction) Net {
	n, err := New(p, dir)
	if err != nil {
		panic(err)
	}
	return n
}

// ---------------------------------------------------------------------------
// Full and concentrated crossbars (single stage)
// ---------------------------------------------------------------------------

// newSingleStage builds a full crossbar (concentration 1) or a concentrated
// crossbar (concentration > 1): one switch whose input ports are shared by
// `concentration` sources and whose output ports are shared by
// `concentration` destinations.
func newSingleStage(p Params, dir Direction, concentration int) *xbarNet {
	numSrc, numDst := p.NumSMs, p.numSlices()
	if dir == Reply {
		numSrc, numDst = p.numSlices(), p.NumSMs
	}
	name := "full-xbar"
	if concentration > 1 {
		name = fmt.Sprintf("c-xbar/%d", concentration)
	}
	n := &xbarNet{
		name:    fmt.Sprintf("%s-%s", name, dir),
		numSrc:  numSrc,
		numDst:  numDst,
		injQ:    make([]*inQueue, numSrc),
		injLong: make([]bool, numSrc),
	}
	inPorts := numSrc / concentration
	outPorts := numDst / concentration

	r := &router{name: name}
	r.route = func(pk *Packet) int { return pk.Dst / concentration }
	r.inQs = make([]*inQueue, inPorts)
	for i := range r.inQs {
		r.inQs[i] = &inQueue{capFlits: p.BufferFlits, router: r}
	}
	r.outPorts = make([]*outPort, outPorts)
	for i := range r.outPorts {
		r.outPorts[i] = &outPort{
			router:      r,
			bypassSink:  -1,
			longLink:    true, // monolithic crossbars use long global links
			linkLatency: p.LinkLatency,
			pipeLatency: p.RouterPipeline,
		}
	}
	n.routers = []*router{r}
	for s := 0; s < numSrc; s++ {
		n.injQ[s] = r.inQs[s/concentration]
		n.injLong[s] = true
	}
	return n.wired()
}

// ---------------------------------------------------------------------------
// Hierarchical two-stage crossbar (H-Xbar)
// ---------------------------------------------------------------------------

// newHierarchical builds the paper's H-Xbar. In the request direction the
// first stage is the per-cluster SM-routers and the second stage is the
// per-memory-controller MC-routers; in the reply direction the stages are
// swapped. The MC-router stage can be bypassed (and power-gated) to turn the
// LLC into a per-cluster private cache.
func newHierarchical(p Params, dir Direction) *xbarNet {
	switch dir {
	case Request:
		return newHXbarRequest(p)
	default:
		return newHXbarReply(p)
	}
}

func newHXbarRequest(p Params) *xbarNet {
	numSrc, numDst := p.NumSMs, p.numSlices()
	smsPerCl := p.smsPerCluster()
	n := &xbarNet{
		name:           "h-xbar-request",
		numSrc:         numSrc,
		numDst:         numDst,
		injQ:           make([]*inQueue, numSrc),
		injLong:        make([]bool, numSrc),
		supportsBypass: true,
	}

	// Second stage: MC-routers, one per memory controller.
	mcRouters := make([]*router, p.NumMCs)
	for m := 0; m < p.NumMCs; m++ {
		r := &router{name: fmt.Sprintf("mc-router-%d", m)}
		r.route = func(pk *Packet) int { return pk.Dst % p.SlicesPerMC }
		r.inQs = make([]*inQueue, p.NumClusters)
		for i := range r.inQs {
			r.inQs[i] = &inQueue{capFlits: p.BufferFlits, router: r}
		}
		r.outPorts = make([]*outPort, p.SlicesPerMC)
		for i := range r.outPorts {
			r.outPorts[i] = &outPort{
				router:      r,
				bypassSink:  -1,
				longLink:    false, // MC-router sits next to its LLC slices
				linkLatency: 0,
				pipeLatency: p.RouterPipeline,
			}
		}
		mcRouters[m] = r
	}

	// First stage: SM-routers, one per cluster.
	smRouters := make([]*router, p.NumClusters)
	for k := 0; k < p.NumClusters; k++ {
		r := &router{name: fmt.Sprintf("sm-router-%d", k)}
		r.route = func(pk *Packet) int { return pk.Dst / p.SlicesPerMC }
		r.inQs = make([]*inQueue, smsPerCl)
		for i := range r.inQs {
			r.inQs[i] = &inQueue{capFlits: p.BufferFlits, router: r}
		}
		r.outPorts = make([]*outPort, p.NumMCs)
		for m := 0; m < p.NumMCs; m++ {
			r.outPorts[m] = &outPort{
				router:      r,
				bypassSink:  -1,
				downstream:  mcRouters[m].inQs[k],
				longLink:    true, // long inter-stage links across the die
				linkLatency: p.LinkLatency,
				pipeLatency: p.RouterPipeline,
			}
		}
		smRouters[k] = r
	}

	n.routers = append(n.routers, smRouters...)
	n.routers = append(n.routers, mcRouters...)
	for s := 0; s < numSrc; s++ {
		n.injQ[s] = smRouters[s/smsPerCl].inQs[s%smsPerCl]
		n.injLong[s] = false // short SM -> SM-router links
	}

	// Bypass: cluster k's output toward MC m delivers straight to slice
	// m*SlicesPerMC+k; the MC-routers are power-gated.
	n.applyBypass = func(net *xbarNet, enable bool) {
		for k, sr := range smRouters {
			for m, port := range sr.outPorts {
				if enable {
					port.downstream = nil
					port.bypassSink = m*p.SlicesPerMC + k
					port.pipeLatency = p.RouterPipeline // only the first-stage pipeline remains
				} else {
					port.downstream = mcRouters[m].inQs[k]
					port.bypassSink = -1
					port.pipeLatency = p.RouterPipeline
				}
			}
		}
		for _, mr := range mcRouters {
			mr.gated = enable
		}
	}
	return n.wired()
}

func newHXbarReply(p Params) *xbarNet {
	numSrc, numDst := p.numSlices(), p.NumSMs
	smsPerCl := p.smsPerCluster()
	n := &xbarNet{
		name:           "h-xbar-reply",
		numSrc:         numSrc,
		numDst:         numDst,
		injQ:           make([]*inQueue, numSrc),
		injLong:        make([]bool, numSrc),
		supportsBypass: true,
	}

	// Second stage: SM-routers, one per cluster.
	smRouters := make([]*router, p.NumClusters)
	for k := 0; k < p.NumClusters; k++ {
		r := &router{name: fmt.Sprintf("sm-router-%d", k)}
		r.route = func(pk *Packet) int { return pk.Dst % smsPerCl }
		r.inQs = make([]*inQueue, p.NumMCs)
		for i := range r.inQs {
			r.inQs[i] = &inQueue{capFlits: p.BufferFlits, router: r}
		}
		r.outPorts = make([]*outPort, smsPerCl)
		for i := range r.outPorts {
			r.outPorts[i] = &outPort{
				router:      r,
				bypassSink:  -1,
				longLink:    false, // short SM-router -> SM links
				linkLatency: 0,
				pipeLatency: p.RouterPipeline,
			}
		}
		smRouters[k] = r
	}

	// First stage: MC-routers, one per memory controller.
	mcRouters := make([]*router, p.NumMCs)
	for m := 0; m < p.NumMCs; m++ {
		r := &router{name: fmt.Sprintf("mc-router-%d", m)}
		r.route = func(pk *Packet) int { return pk.Dst / smsPerCl }
		r.inQs = make([]*inQueue, p.SlicesPerMC)
		for i := range r.inQs {
			r.inQs[i] = &inQueue{capFlits: p.BufferFlits, router: r}
		}
		r.outPorts = make([]*outPort, p.NumClusters)
		for k := 0; k < p.NumClusters; k++ {
			r.outPorts[k] = &outPort{
				router:      r,
				bypassSink:  -1,
				downstream:  smRouters[k].inQs[m],
				longLink:    true,
				linkLatency: p.LinkLatency,
				pipeLatency: p.RouterPipeline,
			}
		}
		mcRouters[m] = r
	}

	n.routers = append(n.routers, mcRouters...)
	n.routers = append(n.routers, smRouters...)
	for s := 0; s < numSrc; s++ {
		n.injQ[s] = mcRouters[s/p.SlicesPerMC].inQs[s%p.SlicesPerMC]
		n.injLong[s] = false // short slice -> MC-router links
	}

	// Bypass: slice (m, k) only ever replies to cluster k in private mode,
	// so it injects directly into SM-router k's input from MC m; the
	// MC-routers are power-gated.
	n.applyBypass = func(net *xbarNet, enable bool) {
		for s := 0; s < numSrc; s++ {
			m, k := s/p.SlicesPerMC, s%p.SlicesPerMC
			if enable {
				net.injQ[s] = smRouters[k].inQs[m]
			} else {
				net.injQ[s] = mcRouters[m].inQs[k]
			}
		}
		for _, mr := range mcRouters {
			mr.gated = enable
		}
	}
	return n.wired()
}

// ---------------------------------------------------------------------------
// Ideal network (ablation only)
// ---------------------------------------------------------------------------

// idealNet delivers every packet after a fixed latency with unlimited
// bandwidth. It exists only for the "infinite NoC" ablation benchmark.
type idealNet struct {
	name     string
	numSrc   int
	numDst   int
	latency  uint64
	cycle    uint64
	stats    Stats
	inflight []inflightPkt
	out      []*Packet
}

func newIdeal(p Params, dir Direction) *idealNet {
	numSrc, numDst := p.NumSMs, p.numSlices()
	if dir == Reply {
		numSrc, numDst = p.numSlices(), p.NumSMs
	}
	lat := uint64(p.IdealLatency)
	if lat == 0 {
		lat = 1
	}
	return &idealNet{
		name:    fmt.Sprintf("ideal-%s", dir),
		numSrc:  numSrc,
		numDst:  numDst,
		latency: lat,
	}
}

func (n *idealNet) Inject(p *Packet) bool {
	if p.Src < 0 || p.Src >= n.numSrc || p.Dst < 0 || p.Dst >= n.numDst {
		panic(fmt.Sprintf("noc %s: endpoint out of range src=%d dst=%d", n.name, p.Src, p.Dst))
	}
	p.InjectedAt = n.cycle
	p.Hops = 1
	n.stats.Injected++
	n.stats.FlitsInjected += uint64(p.Flits)
	n.inflight = append(n.inflight, inflightPkt{p: p, arriveAt: n.cycle + n.latency})
	return true
}

func (n *idealNet) Accepts(src, flits int) bool { return true }

func (n *idealNet) Tick() []*Packet {
	n.cycle++
	n.out = n.out[:0]
	remaining := n.inflight[:0]
	for _, f := range n.inflight {
		if n.cycle >= f.arriveAt {
			f.p.DeliveredAt = n.cycle
			n.stats.Delivered++
			n.stats.FlitsDelivered += uint64(f.p.Flits)
			n.stats.TotalLatency += f.p.DeliveredAt - f.p.InjectedAt
			n.stats.TotalHops++
			n.out = append(n.out, f.p)
		} else {
			remaining = append(remaining, f)
		}
	}
	n.inflight = remaining
	return n.out
}

func (n *idealNet) Pending() bool { return len(n.inflight) > 0 }

func (n *idealNet) Stats() Stats { return n.stats }

func (n *idealNet) ResetStats() { n.stats = Stats{} }

func (n *idealNet) SetBypass(enabled bool) error {
	if enabled {
		return ErrBypassUnsupported
	}
	return nil
}

func (n *idealNet) Bypassed() bool { return false }
