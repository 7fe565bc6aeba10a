// Package noc models the GPU Network-on-Chip connecting SMs to the
// memory-side LLC slices.
//
// A GPU NoC consists of two independent unidirectional networks: the
// request network (SMs -> LLC slices) and the reply network (LLC slices ->
// SMs). Three crossbar topologies from the paper's design-space exploration
// (Section 3) are provided:
//
//   - Full crossbar: every SM has a dedicated port into one high-radix
//     switch that connects to every LLC slice.
//   - Concentrated crossbar (C-Xbar): groups of SMs / LLC slices share one
//     network port through concentrators and distributors.
//   - Hierarchical two-stage crossbar (H-Xbar): per-cluster SM-routers feed
//     per-memory-controller MC-routers. The MC-routers can be bypassed and
//     power-gated, which turns the memory-side LLC into a private-per-
//     cluster cache (Section 4.1) and saves NoC energy.
//
// The model uses wormhole switching approximated at packet granularity:
// each output port serializes packets at one flit per cycle, input buffers
// have finite flit capacity with credit-based backpressure, and arbitration
// is round-robin among competing inputs. This captures the quantities the
// paper's evaluation depends on — per-port bandwidth, queueing at hot LLC
// slices, hop latency and buffer/crossbar/link activity for the power
// model — without simulating individual flit traversals.
package noc

import (
	"fmt"

	"repro/internal/mem"
)

// Packet is one network transaction: a memory request (1 flit) or a data
// reply / write packet (header + cache line payload).
type Packet struct {
	ID          uint64
	Src         int // source endpoint index (SM index or LLC-slice index)
	Dst         int // destination endpoint index
	Flits       int
	InjectedAt  uint64
	DeliveredAt uint64
	Hops        int
	// Req carries the memory request across the request network (nil on the
	// reply network and for synthetic traffic). The payload fields are typed
	// rather than an `any` so that carrying a reply by value does not box an
	// allocation per packet.
	Req *mem.Request
	// Reply carries the response across the reply network (zero otherwise).
	Reply mem.Reply
}

// Stats accumulates activity and latency statistics for one network.
type Stats struct {
	Injected       uint64
	Delivered      uint64
	TotalLatency   uint64 // sum of (delivered - injected) over delivered packets
	TotalHops      uint64
	FlitsInjected  uint64
	FlitsDelivered uint64

	// Activity counters consumed by the power model.
	BufferWrites   uint64 // flits written into any input buffer
	BufferReads    uint64 // flits read out of any input buffer
	CrossbarFlits  uint64 // flits traversing a crossbar switch stage
	ShortLinkFlits uint64 // flits on short local links (SM<->SM-router, slice<->MC-router)
	LongLinkFlits  uint64 // flits on long global links (between router stages / across the die)

	InjectStallCycles uint64 // Inject calls rejected for lack of buffer space

	// Router activity for leakage accounting.
	RouterCycles      uint64 // sum over routers of cycles powered on
	GatedRouterCycles uint64 // sum over routers of cycles power-gated
}

// AvgLatency returns the mean packet latency in cycles.
func (s Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
}

// AvgHops returns the mean hop count per delivered packet.
func (s Stats) AvgHops() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.Delivered)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Injected += other.Injected
	s.Delivered += other.Delivered
	s.TotalLatency += other.TotalLatency
	s.TotalHops += other.TotalHops
	s.FlitsInjected += other.FlitsInjected
	s.FlitsDelivered += other.FlitsDelivered
	s.BufferWrites += other.BufferWrites
	s.BufferReads += other.BufferReads
	s.CrossbarFlits += other.CrossbarFlits
	s.ShortLinkFlits += other.ShortLinkFlits
	s.LongLinkFlits += other.LongLinkFlits
	s.InjectStallCycles += other.InjectStallCycles
	s.RouterCycles += other.RouterCycles
	s.GatedRouterCycles += other.GatedRouterCycles
}

// Net is a unidirectional interconnect between numbered source endpoints and
// numbered destination endpoints.
type Net interface {
	// Inject attempts to enqueue p at its source endpoint. It returns false
	// if the injection buffer lacks space; the caller must retry later.
	Inject(p *Packet) bool
	// Accepts is the refusing half of Inject on its own: it reports whether
	// a packet of the given flit count would be accepted at source src now,
	// and counts a false answer as the InjectStallCycles the failed Inject
	// would have been. A caller that asks first need not build a packet only
	// to have it refused.
	Accepts(src, flits int) bool
	// CanInject reports whether a packet of the given flit count could be
	// injected at source src this cycle, without counting a refusal.
	CanInject(src, flits int) bool
	// Tick advances the network by one cycle and returns packets that
	// arrived at their destination this cycle.
	Tick() []*Packet
	// Pending reports whether any packet is still in flight.
	Pending() bool
	// Stats returns a snapshot of the accumulated statistics.
	Stats() Stats
	// ResetStats clears the accumulated statistics (in-flight packets are
	// unaffected).
	ResetStats()
	// SetBypass enables or disables second-stage (MC-router) bypass. Only
	// the hierarchical crossbar supports it; other topologies return an
	// error when enabling is requested.
	SetBypass(enabled bool) error
	// Bypassed reports whether the second stage is currently bypassed.
	Bypassed() bool
}

// ErrBypassUnsupported is returned by SetBypass(true) on topologies without
// a bypassable second stage.
var ErrBypassUnsupported = fmt.Errorf("noc: topology does not support second-stage bypass")
