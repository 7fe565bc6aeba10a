package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/ring"
)

// inQueue is one router input buffer (the single virtual channel of a port).
// Capacity is expressed in flits; packets occupy their flit count.
type inQueue struct {
	packets   ring.Deque[*Packet]
	capFlits  int
	usedFlits int
	// injBusyUntil serializes injections over the link feeding this queue at
	// one flit per cycle (models the physical channel into the port).
	injBusyUntil uint64
	// servedBy is the output port currently holding this queue in its
	// candidate list (nil when the queue is empty or unregistered).
	servedBy *outPort
	router   *router
}

func (q *inQueue) freeFlits() int { return q.capFlits - q.usedFlits }

// reserve marks flits as committed to this queue before the packet arrives.
func (q *inQueue) reserve(flits int) { q.usedFlits += flits }

// pushReserved appends a packet whose flits were already reserved.
func (q *inQueue) pushReserved(p *Packet) {
	q.packets.PushBack(p)
}

// pop removes and returns the head packet, releasing its flits.
func (q *inQueue) pop() *Packet {
	p := q.packets.PopFront()
	q.usedFlits -= p.Flits
	return p
}

func (q *inQueue) head() *Packet {
	if q.packets.Len() == 0 {
		return nil
	}
	return q.packets.Front()
}

// outPort is a router output port. It serializes packets at one flit per
// cycle and forwards them either to a downstream input queue (next router
// stage) or to a destination endpoint.
type outPort struct {
	router *router
	// downstream is the next-stage input buffer, or nil when the port
	// delivers to destination endpoints directly.
	downstream *inQueue
	// bypassSink, when >= 0 and downstream == nil, asserts that every packet
	// leaving this port must be destined to that endpoint (used to validate
	// MC-router bypass routing).
	bypassSink  int
	longLink    bool
	linkLatency int
	pipeLatency int

	busyUntil  uint64
	candidates ring.Deque[*inQueue] // FIFO of input queues whose head packet routes here
	// inflight holds the packets on the link, in transmission order. A port
	// serializes its packets and its link and pipeline delays are constant
	// while anything is in flight, so arrival times increase strictly along
	// the queue: only its head can be due.
	inflight ring.Deque[inflightPkt]
	index    int // position in router.outPorts
}

type inflightPkt struct {
	p        *Packet
	arriveAt uint64
}

// router is one switch: a set of input queues, a set of output ports and a
// routing function mapping a packet to the output port index that serves it.
type router struct {
	name     string
	inQs     []*inQueue
	outPorts []*outPort
	route    func(p *Packet) int
	gated    bool
	// active has a bit per output port, set while the port has a candidate
	// registered or a packet in flight — the only ports a cycle can change.
	// Derived state: rebuilt by RestoreState.
	active []uint64
}

// wired finishes a net whose routers are in place: it numbers every
// router's ports and sizes its active set.
func (n *xbarNet) wired() *xbarNet {
	for _, r := range n.routers {
		for i, port := range r.outPorts {
			port.index = i
		}
		r.active = make([]uint64, (len(r.outPorts)+63)/64)
	}
	return n
}

func (r *router) setActive(port *outPort) { r.active[port.index/64] |= 1 << (port.index % 64) }

// registerHead places q in the candidate list of the output port its head
// packet routes to.
func (r *router) registerHead(q *inQueue, net *xbarNet) {
	h := q.head()
	if h == nil || q.servedBy != nil {
		return
	}
	idx := r.route(h)
	if idx < 0 || idx >= len(r.outPorts) {
		panic(fmt.Sprintf("noc: router %s routed packet dst=%d to invalid port %d", r.name, h.Dst, idx))
	}
	port := r.outPorts[idx]
	port.candidates.PushBack(q)
	q.servedBy = port
	r.setActive(port)
}

// xbarNet is the shared engine behind all crossbar topologies.
type xbarNet struct {
	name    string
	numSrc  int
	numDst  int
	cycle   uint64
	stats   Stats
	routers []*router

	// injection mapping: source endpoint -> input queue (normal mode).
	injQ []*inQueue
	// injection link class per source endpoint.
	injLong []bool

	// bypass support (hierarchical crossbar only).
	supportsBypass bool
	bypassed       bool
	// applyBypass reconfigures the wiring; applied by SetBypass.
	applyBypass func(net *xbarNet, enable bool)

	inflightCount int
	delivered     []*Packet // reused scratch slice returned by Tick

	// Restore-path free-lists (see UseRestorePools); nil means allocate.
	restorePkts *pool.FreeList[Packet]
	restoreReqs *pool.FreeList[mem.Request]
}

// Inject implements Net.
func (n *xbarNet) Inject(p *Packet) bool {
	if p.Src < 0 || p.Src >= n.numSrc || p.Dst < 0 || p.Dst >= n.numDst {
		panic(fmt.Sprintf("noc %s: endpoint out of range src=%d dst=%d", n.name, p.Src, p.Dst))
	}
	if !n.Accepts(p.Src, p.Flits) {
		return false
	}
	q := n.injQ[p.Src]
	p.InjectedAt = n.cycle
	q.reserve(p.Flits)
	q.pushReserved(p)
	q.injBusyUntil = n.cycle + uint64(p.Flits)
	q.router.registerHead(q, n)
	n.stats.Injected++
	n.stats.FlitsInjected += uint64(p.Flits)
	n.stats.BufferWrites += uint64(p.Flits)
	if n.injLong[p.Src] {
		n.stats.LongLinkFlits += uint64(p.Flits)
	} else {
		n.stats.ShortLinkFlits += uint64(p.Flits)
	}
	n.inflightCount++
	return true
}

// Accepts implements Net.
func (n *xbarNet) Accepts(src, flits int) bool {
	q := n.injQ[src]
	if q.freeFlits() >= flits && n.cycle >= q.injBusyUntil {
		return true
	}
	n.stats.InjectStallCycles++
	return false
}

// CanInject implements Net.
func (n *xbarNet) CanInject(src, flits int) bool {
	if src < 0 || src >= n.numSrc {
		return false
	}
	q := n.injQ[src]
	return q.freeFlits() >= flits && n.cycle >= q.injBusyUntil
}

// Pending implements Net.
func (n *xbarNet) Pending() bool { return n.inflightCount > 0 }

// Stats implements Net.
func (n *xbarNet) Stats() Stats { return n.stats }

// ResetStats implements Net.
func (n *xbarNet) ResetStats() { n.stats = Stats{} }

// Bypassed implements Net.
func (n *xbarNet) Bypassed() bool { return n.bypassed }

// SetBypass implements Net.
func (n *xbarNet) SetBypass(enabled bool) error {
	if !n.supportsBypass {
		if enabled {
			return ErrBypassUnsupported
		}
		return nil
	}
	if enabled == n.bypassed {
		return nil
	}
	if n.Pending() {
		return fmt.Errorf("noc %s: cannot reconfigure with %d packets in flight", n.name, n.inflightCount)
	}
	n.applyBypass(n, enabled)
	n.bypassed = enabled
	return nil
}

// Tick implements Net. Only active ports are visited, in port order, and the
// set is re-read after every port: a transmission can register a new head on
// a later port of the same router, which then starts it this same cycle, as
// it would if every port were visited.
func (n *xbarNet) Tick() []*Packet {
	n.cycle++
	n.delivered = n.delivered[:0]

	for _, r := range n.routers {
		if r.gated {
			n.stats.GatedRouterCycles++
		} else {
			n.stats.RouterCycles++
		}
		for w := range r.active {
			for rest := r.active[w]; rest != 0; {
				bit := bits.TrailingZeros64(rest)
				port := r.outPorts[w*64+bit]
				n.tickPort(r, port)
				if port.inflight.Len() == 0 && port.candidates.Len() == 0 {
					r.active[w] &^= 1 << bit
				}
				rest = r.active[w] &^ (2<<bit - 1)
			}
		}
	}
	return n.delivered
}

func (n *xbarNet) tickPort(r *router, port *outPort) {
	// 1. Land the in-flight packet whose link/pipeline delay elapsed.
	if port.inflight.Len() > 0 && n.cycle >= port.inflight.Front().arriveAt {
		n.arrive(port, port.inflight.PopFront().p)
	}
	n.transmit(r, port)
}

// transmit starts a new transmission if the port is free and a candidate
// waits.
func (n *xbarNet) transmit(r *router, port *outPort) {
	if n.cycle < port.busyUntil || port.candidates.Len() == 0 {
		return
	}
	q := port.candidates.Front()
	p := q.head()
	if p == nil {
		// Defensive: should not happen, drop the stale candidate.
		port.candidates.PopFront()
		q.servedBy = nil
		return
	}
	if port.downstream != nil && port.downstream.freeFlits() < p.Flits {
		return // credit stall: wait for space downstream
	}

	// Dequeue from the input buffer and occupy the output for the packet's
	// serialization time.
	port.candidates.PopFront()
	q.servedBy = nil
	q.pop()
	r.registerHead(q, n)

	flits := uint64(p.Flits)
	n.stats.BufferReads += flits
	if !r.gated {
		n.stats.CrossbarFlits += flits
	}
	if port.longLink {
		n.stats.LongLinkFlits += flits
	} else {
		n.stats.ShortLinkFlits += flits
	}
	p.Hops++

	serialize := uint64(p.Flits)
	arrive := n.cycle + serialize + uint64(port.linkLatency+port.pipeLatency)
	port.busyUntil = n.cycle + serialize

	if port.downstream != nil {
		port.downstream.reserve(p.Flits)
	}
	port.inflight.PushBack(inflightPkt{p: p, arriveAt: arrive})
}

// arrive lands packet p at the far end of port's link.
func (n *xbarNet) arrive(port *outPort, p *Packet) {
	if port.downstream != nil {
		dq := port.downstream
		dq.pushReserved(p)
		n.stats.BufferWrites += uint64(p.Flits)
		dq.router.registerHead(dq, n)
		return
	}
	if port.bypassSink >= 0 && p.Dst != port.bypassSink {
		panic(fmt.Sprintf("noc %s: bypassed port expected dst %d, got %d (private-mode routing violated)",
			n.name, port.bypassSink, p.Dst))
	}
	p.DeliveredAt = n.cycle
	n.stats.Delivered++
	n.stats.FlitsDelivered += uint64(p.Flits)
	n.stats.TotalLatency += p.DeliveredAt - p.InjectedAt
	n.stats.TotalHops += uint64(p.Hops)
	n.inflightCount--
	n.delivered = append(n.delivered, p)
}
