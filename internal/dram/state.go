package dram

import "repro/internal/wire"

// AppendState appends the controller's wire form: the counted banks, the
// counted queue in arrival order, issued and un-issued interleaved, then the
// scalars and statistics. The controller keeps its own cycle clock (Enqueue
// stamps arrivals with it), so it round-trips exactly.
func (c *Controller) AppendState(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(c.banks)))
	for i := range c.banks {
		k := &c.banks[i]
		b = wire.AppendUvarint(b, uint64(k.openRow+1)) // -1, no row open, is a zero byte
		b = wire.AppendUvarint(b, k.readyAt)
		b = wire.AppendUvarint(b, k.actAllowed)
		b = wire.AppendUvarint(b, k.preAllowed)
	}
	// The live slots are the in-flight list and the bank FIFOs, each in
	// arrival order; each pass takes the oldest not yet written.
	b = wire.AppendUvarint(b, uint64(c.count))
	from := uint64(0)
	for range c.count {
		next := int32(-1)
		visit := func(i int32) {
			if s := c.slots[i].seq; s >= from && (next < 0 || s < c.slots[next].seq) {
				next = i
			}
		}
		for _, i := range c.inflight {
			visit(i)
		}
		for bi := range c.banks {
			for i := c.banks[bi].head; i >= 0; i = c.slots[i].next {
				visit(i)
			}
		}
		q := &c.slots[next]
		from = q.seq + 1
		b = wire.AppendUvarint(b, q.req.ID)
		b = wire.AppendInt(b, q.req.Bank)
		b = wire.AppendUvarint(b, q.req.Row)
		b = wire.AppendBool(b, q.req.Write)
		b = wire.AppendUvarint(b, q.req.Arrival)
		b = wire.AppendInt(b, q.req.Meta.Slice)
		b = wire.AppendUvarint(b, q.req.Meta.Addr)
		b = wire.AppendBool(b, q.req.Meta.Fill)
		b = wire.AppendBool(b, q.issued)
		b = wire.AppendBool(b, q.conflict)
		b = wire.AppendBool(b, q.activated)
		b = wire.AppendUvarint(b, q.doneAt)
	}
	b = wire.AppendUvarint(b, c.busFreeAt)
	b = wire.AppendUvarint(b, c.lastActCycle)
	b = wire.AppendUvarint(b, c.cycle)
	for _, p := range c.stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	return b
}

// counters lists the statistics in wire order.
func (s *Stats) counters() [11]*uint64 {
	return [...]*uint64{&s.Requests, &s.Reads, &s.Writes, &s.RowHits, &s.RowMisses,
		&s.RowConflicts, &s.BytesMoved, &s.BusyCycles, &s.TotalQueueing, &s.Completed, &s.StallsFull}
}

// RestoreState overwrites the controller's state with the next one in r,
// written by a controller built under the same configuration. On a failure,
// recorded in r, the controller holds nothing usable.
func (c *Controller) RestoreState(r *wire.Reader) {
	if n := r.Uvarint(); n != uint64(len(c.banks)) {
		r.Fail("dram %d: snapshot has %d banks, controller has %d", c.id, n, len(c.banks))
		return
	}
	for i := range c.banks {
		c.banks[i] = bankState{openRow: int64(r.Uvarint()) - 1, readyAt: r.Uvarint(), actAllowed: r.Uvarint(), preAllowed: r.Uvarint()}
	}
	c.clearQueue()
	n := r.Count(12)
	if n > c.queueCap {
		r.Fail("dram %d: snapshot queue %d exceeds capacity %d", c.id, n, c.queueCap)
		return
	}
	// The requests go to slots 0..n-1 in their saved (arrival) order.
	for range n {
		req := Request{ID: r.Uvarint(), Bank: r.Int(), Row: r.Uvarint(), Write: r.Bool(), Arrival: r.Uvarint(),
			Meta: Meta{Slice: r.Int(), Addr: r.Uvarint(), Fill: r.Bool()}}
		if req.Bank < 0 || req.Bank >= len(c.banks) {
			r.Fail("dram %d: snapshot request for bank %d, controller has %d", c.id, req.Bank, len(c.banks))
			return
		}
		c.take(queued{req: req, issued: r.Bool(), conflict: r.Bool(), activated: r.Bool(), doneAt: r.Uvarint()})
	}
	c.busFreeAt = r.Uvarint()
	c.lastActCycle = r.Uvarint()
	c.cycle = r.Uvarint()
	for _, p := range c.stats.counters() {
		*p = r.Uvarint()
	}
	// The bank FIFOs and summaries, the in-flight list, nextDone and the
	// ready calendar are derived: they are rebuilt from the slots once the
	// cycle and the bus are known, which come after the queue on the wire.
	for i := range int32(n) {
		if c.slots[i].issued {
			c.fly(i)
		} else {
			c.link(i)
		}
	}
}
