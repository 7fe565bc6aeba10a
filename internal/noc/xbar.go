package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/ring"
	"repro/internal/wire"
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
	index    int // position in xbarNet.ports
}

type inflightPkt struct {
	p        *Packet
	arriveAt uint64
}

// never is the next event of a port without work.
const never = ^uint64(0)

// horizon is how far ahead of the net's cycle the wake calendar files a port:
// its 64 slots hold cycle+1 .. cycle+horizon, one cycle per slot.
const horizon = 63

// nextEvent is the earliest cycle in which visiting the port can change
// anything: its head packet in flight lands at arriveAt, and a candidate can
// start once the port is free (busyUntil, which says nothing while no
// candidate waits). For a free port whose candidate is stalled on credit that
// cycle has passed: space downstream frees when another port transmits, so
// the port is visited every cycle until then. never: no work.
func (p *outPort) nextEvent() uint64 {
	at := never
	if p.inflight.Len() > 0 {
		at = p.inflight.Front().arriveAt
	}
	if p.candidates.Len() > 0 {
		at = min(at, p.busyUntil)
	}
	return at
}

// router is one switch: a set of input queues, a set of output ports and a
// routing function mapping a packet to the output port index that serves it.
type router struct {
	name     string
	inQs     []*inQueue
	outPorts []*outPort
	route    func(p *Packet) int
	gated    bool
}

// wired finishes a net whose routers are in place: it lists every port in
// visit order and sizes the due set and the calendar.
func (n *xbarNet) wired() *xbarNet {
	for _, r := range n.routers {
		for _, port := range r.outPorts {
			port.index = len(n.ports)
			n.ports = append(n.ports, port)
		}
	}
	n.due = make([]uint64, wire.BitWords(len(n.ports)))
	n.cal = make([]uint64, 64*len(n.due))
	n.countRouters()
	return n
}

// countRouters recounts the powered and the gated routers, which change only
// when SetBypass gates or ungates a stage.
func (n *xbarNet) countRouters() {
	n.poweredRouters, n.gatedRouters = 0, 0
	for _, r := range n.routers {
		if r.gated {
			n.gatedRouters++
		} else {
			n.poweredRouters++
		}
	}
}

func (n *xbarNet) setDue(port *outPort) { n.due[port.index>>6] |= 1 << (port.index & 63) }

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
	net.setDue(port)
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

	// ports lists every router's output ports, router after router, in the
	// order Tick visits them; outPort.index is the position here. due has a
	// bit per port that the next cycle must visit, and cal is the wake
	// calendar, 64 slots of len(due) words: slot t&63 holds the ports whose
	// next event falls in cycle t, filed at most horizon cycles ahead. Both
	// are derived, never serialised: RestoreState rebuilds them.
	ports []*outPort
	due   []uint64
	cal   []uint64
	// poweredRouters and gatedRouters are what each cycle adds to
	// RouterCycles and GatedRouterCycles.
	poweredRouters, gatedRouters uint64
	visits                       uint64 // ports visited (PortVisits)
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
	n.countRouters()
	return nil
}

// Tick implements Net. Only due ports are visited, in visit order, and the
// set is re-read after every port: a transmission or an arrival can register
// a new head on a later port, which then starts it this same cycle, as it
// would if every port were visited. A visited port leaves the due set for
// the calendar slot of its next event, unless that event is now (a credit
// stall), beyond the horizon, or never (no work, filed nowhere); a candidate
// registering makes it due again. Visiting a port whose event has not come
// does nothing, so a port due or filed early is harmless.
func (n *xbarNet) Tick() []*Packet {
	n.cycle++
	n.delivered = n.delivered[:0]
	n.stats.RouterCycles += n.poweredRouters
	n.stats.GatedRouterCycles += n.gatedRouters

	wire.Drain(n.due, n.cal, int(n.cycle&63))
	for w := range n.due {
		for rest := n.due[w]; rest != 0; {
			bit := bits.TrailingZeros64(rest)
			port := n.ports[w*64+bit]
			n.tickPort(port)
			n.visits++
			if at := port.nextEvent(); at == never {
				n.due[w] &^= 1 << bit
			} else if at > n.cycle && at-n.cycle <= horizon {
				n.due[w] &^= 1 << bit
				n.cal[int(at&63)*len(n.due)+w] |= 1 << bit
			}
			rest = n.due[w] &^ (2<<bit - 1)
		}
	}
	return n.delivered
}

// PortVisits returns how many output ports n's ticks have visited since it
// was built: a count of host work (BenchmarkStep reports it per cycle), not
// a statistic — it is in neither Stats nor a snapshot. The ideal network has
// no ports.
func PortVisits(n Net) uint64 {
	if x, ok := n.(*xbarNet); ok {
		return x.visits
	}
	return 0
}

func (n *xbarNet) tickPort(port *outPort) {
	// 1. Land the in-flight packet whose link/pipeline delay elapsed.
	if port.inflight.Len() > 0 && n.cycle >= port.inflight.Front().arriveAt {
		n.arrive(port, port.inflight.PopFront().p)
	}
	n.transmit(port)
}

// transmit starts a new transmission if the port is free and a candidate
// waits.
func (n *xbarNet) transmit(port *outPort) {
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
	r := port.router
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
