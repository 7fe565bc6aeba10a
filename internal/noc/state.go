package noc

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pool"
)

// UseRestorePools directs RestoreState to acquire packets and their carried
// requests from the given free-lists instead of allocating fresh ones — the
// single-container ownership invariant makes the two equivalent, and the
// pooled form keeps checkpoint resumes from re-growing the heap the owning
// GPU's steady-state loop already paid for. Either pool may be nil.
func UseRestorePools(n Net, pkts *pool.FreeList[Packet], reqs *pool.FreeList[mem.Request]) {
	switch net := n.(type) {
	case *xbarNet:
		net.restorePkts, net.restoreReqs = pkts, reqs
	case *idealNet:
		net.restorePkts, net.restoreReqs = pkts, reqs
	}
}

// PacketState mirrors one Packet by value. Req is flattened (HasReq guards
// nil); on restore both the packet and its request are acquired from the
// restore pools (or freshly allocated), which the single-container
// ownership invariant makes equivalent.
type PacketState struct {
	ID          uint64
	Src         int
	Dst         int
	Flits       int
	InjectedAt  uint64
	DeliveredAt uint64
	Hops        int
	HasReq      bool
	Req         mem.Request
	Reply       mem.Reply
}

func savePacket(p *Packet) PacketState {
	st := PacketState{
		ID:          p.ID,
		Src:         p.Src,
		Dst:         p.Dst,
		Flits:       p.Flits,
		InjectedAt:  p.InjectedAt,
		DeliveredAt: p.DeliveredAt,
		Hops:        p.Hops,
		Reply:       p.Reply,
	}
	if p.Req != nil {
		st.HasReq = true
		st.Req = *p.Req
	}
	return st
}

func restorePacket(st PacketState, pkts *pool.FreeList[Packet], reqs *pool.FreeList[mem.Request]) *Packet {
	var p *Packet
	if pkts != nil {
		p = pkts.Get()
	} else {
		p = &Packet{}
	}
	p.ID = st.ID
	p.Src = st.Src
	p.Dst = st.Dst
	p.Flits = st.Flits
	p.InjectedAt = st.InjectedAt
	p.DeliveredAt = st.DeliveredAt
	p.Hops = st.Hops
	p.Reply = st.Reply
	if st.HasReq {
		var r *mem.Request
		if reqs != nil {
			r = reqs.Get()
		} else {
			r = new(mem.Request)
		}
		*r = st.Req
		p.Req = r
	}
	return p
}

// InflightState mirrors one packet traversing a link.
type InflightState struct {
	Pkt      PacketState
	ArriveAt uint64
}

// QueueState mirrors one router input buffer. UsedFlits is saved explicitly:
// it can exceed the sum of resident packet flits when flits are reserved for
// packets still in flight toward this queue.
type QueueState struct {
	Packets      []PacketState
	UsedFlits    int
	InjBusyUntil uint64
}

// PortState mirrors one router output port. Candidates is the arbitration
// FIFO as indices into the owning router's input queues — its order decides
// which queue wins the port next, so it must round-trip exactly.
type PortState struct {
	BusyUntil  uint64
	Candidates []int
	Inflight   []InflightState
}

// RouterState mirrors one switch stage.
type RouterState struct {
	Queues []QueueState
	Ports  []PortState
}

// NetState is a complete snapshot of a Net. Kind selects the concrete
// implementation ("xbar" or "ideal"); Routers is used by crossbars, Inflight
// by the ideal network.
type NetState struct {
	Kind          string
	Cycle         uint64
	Stats         Stats
	Bypassed      bool
	InflightCount int
	Routers       []RouterState
	Inflight      []InflightState
}

// SaveState captures the network's mutable state. The topology itself
// (router wiring, injection mapping) is not saved: it is a pure function of
// the construction parameters plus the bypass flag.
func SaveState(n Net) (NetState, error) {
	switch net := n.(type) {
	case *xbarNet:
		return saveXbar(net), nil
	case *idealNet:
		return saveIdeal(net), nil
	default:
		return NetState{}, fmt.Errorf("noc: cannot snapshot network of type %T", n)
	}
}

// RestoreState overwrites n's mutable state with a snapshot taken from a net
// built with the same parameters and direction. n must be freshly built
// (empty): bypass is re-applied first, while the reconfiguration guard can
// still pass, and the queues are then refilled in place.
func RestoreState(n Net, st NetState) error {
	switch net := n.(type) {
	case *xbarNet:
		return restoreXbar(net, st)
	case *idealNet:
		return restoreIdeal(net, st)
	default:
		return fmt.Errorf("noc: cannot restore network of type %T", n)
	}
}

func saveXbar(n *xbarNet) NetState {
	st := NetState{
		Kind:          "xbar",
		Cycle:         n.cycle,
		Stats:         n.stats,
		Bypassed:      n.bypassed,
		InflightCount: n.inflightCount,
		Routers:       make([]RouterState, len(n.routers)),
	}
	for ri, r := range n.routers {
		rs := RouterState{
			Queues: make([]QueueState, len(r.inQs)),
			Ports:  make([]PortState, len(r.outPorts)),
		}
		for qi, q := range r.inQs {
			qs := QueueState{
				Packets:      make([]PacketState, 0, q.packets.Len()),
				UsedFlits:    q.usedFlits,
				InjBusyUntil: q.injBusyUntil,
			}
			for i := 0; i < q.packets.Len(); i++ {
				qs.Packets = append(qs.Packets, savePacket(q.packets.At(i)))
			}
			rs.Queues[qi] = qs
		}
		for pi, port := range r.outPorts {
			ps := PortState{
				BusyUntil:  port.busyUntil,
				Candidates: make([]int, 0, port.candidates.Len()),
				Inflight:   make([]InflightState, 0, port.inflight.Len()),
			}
			for i := 0; i < port.candidates.Len(); i++ {
				cand := port.candidates.At(i)
				idx := -1
				for qi, q := range r.inQs {
					if q == cand {
						idx = qi
						break
					}
				}
				if idx < 0 {
					panic(fmt.Sprintf("noc %s: candidate queue not owned by its router", n.name))
				}
				ps.Candidates = append(ps.Candidates, idx)
			}
			for i := 0; i < port.inflight.Len(); i++ {
				f := port.inflight.At(i)
				ps.Inflight = append(ps.Inflight, InflightState{Pkt: savePacket(f.p), ArriveAt: f.arriveAt})
			}
			rs.Ports[pi] = ps
		}
		st.Routers[ri] = rs
	}
	return st
}

func restoreXbar(n *xbarNet, st NetState) error {
	if st.Kind != "xbar" {
		return fmt.Errorf("noc %s: snapshot kind %q, want xbar", n.name, st.Kind)
	}
	if len(st.Routers) != len(n.routers) {
		return fmt.Errorf("noc %s: snapshot has %d routers, net has %d", n.name, len(st.Routers), len(n.routers))
	}
	if err := n.SetBypass(st.Bypassed); err != nil {
		return fmt.Errorf("noc %s: %w", n.name, err)
	}
	for ri, rs := range st.Routers {
		r := n.routers[ri]
		if len(rs.Queues) != len(r.inQs) || len(rs.Ports) != len(r.outPorts) {
			return fmt.Errorf("noc %s: router %d shape mismatch", n.name, ri)
		}
		for qi, qs := range rs.Queues {
			q := r.inQs[qi]
			q.packets.Clear()
			for _, ps := range qs.Packets {
				q.packets.PushBack(restorePacket(ps, n.restorePkts, n.restoreReqs))
			}
			q.usedFlits = qs.UsedFlits
			q.injBusyUntil = qs.InjBusyUntil
			q.servedBy = nil
		}
		for pi, ps := range rs.Ports {
			port := r.outPorts[pi]
			port.busyUntil = ps.BusyUntil
			port.candidates.Clear()
			for _, qi := range ps.Candidates {
				if qi < 0 || qi >= len(r.inQs) {
					return fmt.Errorf("noc %s: router %d candidate index %d out of range", n.name, ri, qi)
				}
				q := r.inQs[qi]
				port.candidates.PushBack(q)
				q.servedBy = port
			}
			port.inflight.Clear()
			for _, f := range ps.Inflight {
				port.inflight.PushBack(inflightPkt{p: restorePacket(f.Pkt, n.restorePkts, n.restoreReqs), arriveAt: f.ArriveAt})
			}
			// The active set is derived: a port is in it while it holds a
			// candidate or a packet in flight.
			r.active[pi/64] &^= 1 << (pi % 64)
			if port.candidates.Len() > 0 || port.inflight.Len() > 0 {
				r.setActive(port)
			}
		}
	}
	n.cycle = st.Cycle
	n.stats = st.Stats
	n.inflightCount = st.InflightCount
	return nil
}

func saveIdeal(n *idealNet) NetState {
	st := NetState{
		Kind:          "ideal",
		Cycle:         n.cycle,
		Stats:         n.stats,
		InflightCount: len(n.inflight),
		Inflight:      make([]InflightState, 0, len(n.inflight)),
	}
	for _, f := range n.inflight {
		st.Inflight = append(st.Inflight, InflightState{Pkt: savePacket(f.p), ArriveAt: f.arriveAt})
	}
	return st
}

func restoreIdeal(n *idealNet, st NetState) error {
	if st.Kind != "ideal" {
		return fmt.Errorf("noc %s: snapshot kind %q, want ideal", n.name, st.Kind)
	}
	n.inflight = n.inflight[:0]
	for _, f := range st.Inflight {
		n.inflight = append(n.inflight, inflightPkt{p: restorePacket(f.Pkt, n.restorePkts, n.restoreReqs), arriveAt: f.ArriveAt})
	}
	n.cycle = st.Cycle
	n.stats = st.Stats
	return nil
}
