package noc

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/wire"
)

// A network's wire form leads with its kind ("xbar" or "ideal") and
// scalars, then the statistics, the counted routers (each its counted input
// queues, then its counted output ports) and the ideal network's counted
// packets in flight; each kind writes the other's lists empty. The topology
// itself (router wiring, injection mapping) is not written: it is a pure
// function of the construction parameters plus the bypass flag. Packets are
// read back into objects from the pools RestoreState is given, and so are
// the requests they carry, which the single-container ownership invariant
// makes equivalent to the ones written.

// packetWireMin is the fewest bytes a packet encodes to.
const packetWireMin = 8 + mem.ReplyWireMin

func appendPacket(b []byte, p *Packet) []byte {
	b = wire.AppendUvarint(b, p.ID)
	b = wire.AppendInt(b, p.Src)
	b = wire.AppendInt(b, p.Dst)
	b = wire.AppendInt(b, p.Flits)
	b = wire.AppendUvarint(b, p.InjectedAt)
	b = wire.AppendUvarint(b, p.DeliveredAt)
	b = wire.AppendInt(b, p.Hops)
	b = wire.AppendBool(b, p.Req != nil)
	if p.Req != nil {
		b = mem.AppendRequest(b, p.Req)
	}
	return mem.AppendReply(b, &p.Reply)
}

func readPacket(r *wire.Reader, pkts *pool.FreeList[Packet], reqs *pool.FreeList[mem.Request]) *Packet {
	p := pkts.Get()
	p.ID = r.Uvarint()
	p.Src = r.Int()
	p.Dst = r.Int()
	p.Flits = r.Int()
	p.InjectedAt = r.Uvarint()
	p.DeliveredAt = r.Uvarint()
	p.Hops = r.Int()
	if r.Bool() {
		p.Req = reqs.Get()
		p.Req.ReadFrom(r)
	}
	p.Reply.ReadFrom(r)
	return p
}

// appendHead writes what both kinds lead with.
func appendHead(b []byte, kind string, cycle uint64, bypassed bool, inflight int, st *Stats) []byte {
	b = wire.AppendString(b, kind)
	b = wire.AppendUvarint(b, cycle)
	b = wire.AppendBool(b, bypassed)
	b = wire.AppendInt(b, inflight)
	for _, p := range st.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	return b
}

// readHead reads it back into st, failing unless the kind is kind.
func readHead(r *wire.Reader, name, kind string, st *Stats) (cycle uint64, bypassed bool, inflight int) {
	if k := r.String(); k != kind {
		r.Fail("noc %s: snapshot kind %q, want %s", name, k, kind)
	}
	cycle, bypassed, inflight = r.Uvarint(), r.Bool(), r.Int()
	for _, p := range st.counters() {
		*p = r.Uvarint()
	}
	return cycle, bypassed, inflight
}

// counters lists the statistics in wire order.
func (s *Stats) counters() [14]*uint64 {
	return [...]*uint64{&s.Injected, &s.Delivered, &s.TotalLatency, &s.TotalHops, &s.FlitsInjected, &s.FlitsDelivered,
		&s.BufferWrites, &s.BufferReads, &s.CrossbarFlits, &s.ShortLinkFlits, &s.LongLinkFlits,
		&s.InjectStallCycles, &s.RouterCycles, &s.GatedRouterCycles}
}

// appendInflight appends a counted run of packets on a link.
func appendInflight(b []byte, n int, at func(int) inflightPkt) []byte {
	b = wire.AppendUvarint(b, uint64(n))
	for i := range n {
		f := at(i)
		b = appendPacket(b, f.p)
		b = wire.AppendUvarint(b, f.arriveAt)
	}
	return b
}

// readInflight reads a counted run of packets on a link, handing each to add.
func readInflight(r *wire.Reader, pkts *pool.FreeList[Packet], reqs *pool.FreeList[mem.Request], add func(inflightPkt)) {
	for range r.Count(packetWireMin + 1) {
		add(inflightPkt{p: readPacket(r, pkts, reqs), arriveAt: r.Uvarint()})
	}
}

// AppendState implements Net.
func (n *xbarNet) AppendState(b []byte) []byte {
	b = appendHead(b, "xbar", n.cycle, n.bypassed, n.inflightCount, &n.stats)
	b = wire.AppendUvarint(b, uint64(len(n.routers)))
	for _, rt := range n.routers {
		b = wire.AppendUvarint(b, uint64(len(rt.inQs)))
		for _, q := range rt.inQs {
			b = wire.AppendUvarint(b, uint64(q.packets.Len()))
			for i := 0; i < q.packets.Len(); i++ {
				b = appendPacket(b, q.packets.At(i))
			}
			b = wire.AppendInt(b, q.usedFlits) // reserved flits of packets still on their way count too
			b = wire.AppendUvarint(b, q.injBusyUntil)
		}
		b = wire.AppendUvarint(b, uint64(len(rt.outPorts)))
		for _, port := range rt.outPorts {
			b = wire.AppendUvarint(b, port.busyUntil)
			// The arbitration FIFO goes as indices into the router's input
			// queues: its order decides which queue wins the port next.
			b = wire.AppendUvarint(b, uint64(port.candidates.Len()))
			for i := 0; i < port.candidates.Len(); i++ {
				b = wire.AppendInt(b, slices.Index(rt.inQs, port.candidates.At(i)))
			}
			b = appendInflight(b, port.inflight.Len(), port.inflight.At)
		}
	}
	return wire.AppendUvarint(b, 0) // no ideal-network packets
}

// RestoreState implements Net. Bypass is re-applied before the queues are
// refilled, while the reconfiguration guard can still pass.
func (n *xbarNet) RestoreState(r *wire.Reader, pkts *pool.FreeList[Packet], reqs *pool.FreeList[mem.Request]) {
	var stats Stats
	cycle, bypassed, inflight := readHead(r, n.name, "xbar", &stats)
	if k := r.Uvarint(); k != uint64(len(n.routers)) {
		r.Fail("noc %s: snapshot has %d routers, net has %d", n.name, k, len(n.routers))
		return
	}
	if err := n.SetBypass(bypassed); err != nil {
		r.Fail("noc %s: %w", n.name, err)
		return
	}
	// The due set and the calendar are derived: every port holding a
	// candidate or a packet in flight starts due, and none is filed.
	clear(n.due)
	clear(n.cal)
	for ri, rt := range n.routers {
		if k := r.Uvarint(); k != uint64(len(rt.inQs)) {
			r.Fail("noc %s: router %d shape mismatch", n.name, ri)
			return
		}
		for _, q := range rt.inQs {
			q.packets.Clear()
			for range r.Count(packetWireMin) {
				q.packets.PushBack(readPacket(r, pkts, reqs))
			}
			q.usedFlits = r.Int()
			q.injBusyUntil = r.Uvarint()
			q.servedBy = nil
		}
		if k := r.Uvarint(); k != uint64(len(rt.outPorts)) {
			r.Fail("noc %s: router %d shape mismatch", n.name, ri)
			return
		}
		for _, port := range rt.outPorts {
			port.busyUntil = r.Uvarint()
			port.candidates.Clear()
			for range r.Count(1) {
				qi := r.Int()
				if qi < 0 || qi >= len(rt.inQs) {
					r.Fail("noc %s: router %d candidate index %d out of range", n.name, ri, qi)
					return
				}
				port.candidates.PushBack(rt.inQs[qi])
				rt.inQs[qi].servedBy = port
			}
			port.inflight.Clear()
			readInflight(r, pkts, reqs, port.inflight.PushBack)
			if port.nextEvent() != never {
				n.setDue(port)
			}
		}
	}
	if k := r.Uvarint(); k != 0 {
		r.Fail("noc %s: snapshot has %d ideal-network packets in flight", n.name, k)
	}
	n.cycle = cycle
	n.stats = stats
	n.inflightCount = inflight
}

// AppendState implements Net.
func (n *idealNet) AppendState(b []byte) []byte {
	b = appendHead(b, "ideal", n.cycle, false, len(n.inflight), &n.stats)
	b = wire.AppendUvarint(b, 0) // no routers
	return appendInflight(b, len(n.inflight), func(i int) inflightPkt { return n.inflight[i] })
}

// RestoreState implements Net.
func (n *idealNet) RestoreState(r *wire.Reader, pkts *pool.FreeList[Packet], reqs *pool.FreeList[mem.Request]) {
	cycle, _, _ := readHead(r, n.name, "ideal", &n.stats)
	if k := r.Uvarint(); k != 0 {
		r.Fail("noc %s: snapshot has %d routers, net has none", n.name, k)
		return
	}
	n.inflight = n.inflight[:0]
	readInflight(r, pkts, reqs, func(f inflightPkt) { n.inflight = append(n.inflight, f) })
	n.cycle = cycle
}
