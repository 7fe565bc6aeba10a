package noc

import (
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/wire"
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

// packetWireMin is the fewest bytes a PacketState encodes to.
const packetWireMin = 8 + mem.ReplyWireMin

func (st *PacketState) appendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, st.ID)
	b = wire.AppendInt(b, st.Src)
	b = wire.AppendInt(b, st.Dst)
	b = wire.AppendInt(b, st.Flits)
	b = wire.AppendUvarint(b, st.InjectedAt)
	b = wire.AppendUvarint(b, st.DeliveredAt)
	b = wire.AppendInt(b, st.Hops)
	b = wire.AppendBool(b, st.HasReq)
	if st.HasReq {
		b = st.Req.AppendTo(b)
	}
	return st.Reply.AppendTo(b)
}

func (st *PacketState) readFrom(r *wire.Reader) {
	st.ID = r.Uvarint()
	st.Src = r.Int()
	st.Dst = r.Int()
	st.Flits = r.Int()
	st.InjectedAt = r.Uvarint()
	st.DeliveredAt = r.Uvarint()
	st.Hops = r.Int()
	st.HasReq = r.Bool()
	st.Req = mem.Request{}
	if st.HasReq {
		st.Req.ReadFrom(r)
	}
	st.Reply.ReadFrom(r)
}

func appendInflight(b []byte, fs []InflightState) []byte {
	b = wire.AppendUvarint(b, uint64(len(fs)))
	for i := range fs {
		b = fs[i].Pkt.appendTo(b)
		b = wire.AppendUvarint(b, fs[i].ArriveAt)
	}
	return b
}

func readInflight(r *wire.Reader, fs []InflightState) []InflightState {
	fs = wire.Resize(fs, r.Count(packetWireMin+1))
	for i := range fs {
		fs[i].Pkt.readFrom(r)
		fs[i].ArriveAt = r.Uvarint()
	}
	return fs
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
	var st NetState
	err := SaveStateInto(n, &st)
	return st, err
}

// SaveStateInto is SaveState reusing the backing arrays st already has.
func SaveStateInto(n Net, st *NetState) error {
	switch net := n.(type) {
	case *xbarNet:
		saveXbar(net, st)
	case *idealNet:
		saveIdeal(net, st)
	default:
		return fmt.Errorf("noc: cannot snapshot network of type %T", n)
	}
	return nil
}

// counters lists the statistics in wire order.
func (s *Stats) counters() [14]*uint64 {
	return [...]*uint64{&s.Injected, &s.Delivered, &s.TotalLatency, &s.TotalHops, &s.FlitsInjected, &s.FlitsDelivered,
		&s.BufferWrites, &s.BufferReads, &s.CrossbarFlits, &s.ShortLinkFlits, &s.LongLinkFlits,
		&s.InjectStallCycles, &s.RouterCycles, &s.GatedRouterCycles}
}

// AppendTo appends the state's wire form: kind and scalars, the statistics,
// the counted routers (each its counted queues, then its counted ports),
// then the ideal network's counted packets in flight.
func (st *NetState) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, st.Kind)
	b = wire.AppendUvarint(b, st.Cycle)
	b = wire.AppendBool(b, st.Bypassed)
	b = wire.AppendInt(b, st.InflightCount)
	for _, p := range st.Stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	b = wire.AppendUvarint(b, uint64(len(st.Routers)))
	for ri := range st.Routers {
		rs := &st.Routers[ri]
		b = wire.AppendUvarint(b, uint64(len(rs.Queues)))
		for qi := range rs.Queues {
			qs := &rs.Queues[qi]
			b = wire.AppendUvarint(b, uint64(len(qs.Packets)))
			for i := range qs.Packets {
				b = qs.Packets[i].appendTo(b)
			}
			b = wire.AppendInt(b, qs.UsedFlits)
			b = wire.AppendUvarint(b, qs.InjBusyUntil)
		}
		b = wire.AppendUvarint(b, uint64(len(rs.Ports)))
		for pi := range rs.Ports {
			ps := &rs.Ports[pi]
			b = wire.AppendUvarint(b, ps.BusyUntil)
			b = wire.AppendUvarint(b, uint64(len(ps.Candidates)))
			b = wire.AppendInts(b, ps.Candidates)
			b = appendInflight(b, ps.Inflight)
		}
	}
	return appendInflight(b, st.Inflight)
}

// ReadFrom overwrites the state with the next one in r, reusing the backing
// arrays it already has.
func (st *NetState) ReadFrom(r *wire.Reader) {
	st.Kind = r.String()
	st.Cycle = r.Uvarint()
	st.Bypassed = r.Bool()
	st.InflightCount = r.Int()
	for _, p := range st.Stats.counters() {
		*p = r.Uvarint()
	}
	st.Routers = wire.Resize(st.Routers, r.Count(2))
	for ri := range st.Routers {
		rs := &st.Routers[ri]
		rs.Queues = wire.Resize(rs.Queues, r.Count(3))
		for qi := range rs.Queues {
			qs := &rs.Queues[qi]
			qs.Packets = wire.Resize(qs.Packets, r.Count(packetWireMin))
			for i := range qs.Packets {
				qs.Packets[i].readFrom(r)
			}
			qs.UsedFlits = r.Int()
			qs.InjBusyUntil = r.Uvarint()
		}
		rs.Ports = wire.Resize(rs.Ports, r.Count(3))
		for pi := range rs.Ports {
			ps := &rs.Ports[pi]
			ps.BusyUntil = r.Uvarint()
			ps.Candidates = r.Ints(ps.Candidates, r.Count(1))
			ps.Inflight = readInflight(r, ps.Inflight)
		}
	}
	st.Inflight = readInflight(r, st.Inflight)
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

func saveXbar(n *xbarNet, st *NetState) {
	st.Kind = "xbar"
	st.Cycle = n.cycle
	st.Stats = n.stats
	st.Bypassed = n.bypassed
	st.InflightCount = n.inflightCount
	st.Inflight = st.Inflight[:0]
	st.Routers = wire.Resize(st.Routers, len(n.routers))
	for ri, r := range n.routers {
		rs := &st.Routers[ri]
		rs.Queues = wire.Resize(rs.Queues, len(r.inQs))
		rs.Ports = wire.Resize(rs.Ports, len(r.outPorts))
		for qi, q := range r.inQs {
			qs := &rs.Queues[qi]
			qs.Packets = qs.Packets[:0]
			for i := 0; i < q.packets.Len(); i++ {
				qs.Packets = append(qs.Packets, savePacket(q.packets.At(i)))
			}
			qs.UsedFlits = q.usedFlits
			qs.InjBusyUntil = q.injBusyUntil
		}
		for pi, port := range r.outPorts {
			ps := &rs.Ports[pi]
			ps.BusyUntil = port.busyUntil
			ps.Candidates, ps.Inflight = ps.Candidates[:0], ps.Inflight[:0]
			for i := 0; i < port.candidates.Len(); i++ {
				idx := slices.Index(r.inQs, port.candidates.At(i))
				if idx < 0 {
					panic(fmt.Sprintf("noc %s: candidate queue not owned by its router", n.name))
				}
				ps.Candidates = append(ps.Candidates, idx)
			}
			for i := 0; i < port.inflight.Len(); i++ {
				f := port.inflight.At(i)
				ps.Inflight = append(ps.Inflight, InflightState{Pkt: savePacket(f.p), ArriveAt: f.arriveAt})
			}
		}
	}
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

func saveIdeal(n *idealNet, st *NetState) {
	st.Kind = "ideal"
	st.Cycle = n.cycle
	st.Stats = n.stats
	st.Bypassed = false
	st.InflightCount = len(n.inflight)
	st.Routers = st.Routers[:0]
	st.Inflight = st.Inflight[:0]
	for _, f := range n.inflight {
		st.Inflight = append(st.Inflight, InflightState{Pkt: savePacket(f.p), ArriveAt: f.arriveAt})
	}
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
