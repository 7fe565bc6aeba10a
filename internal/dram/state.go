package dram

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/wire"
)

// BankState mirrors one bank's timing state machine for serialization.
type BankState struct {
	OpenRow    int64
	ReadyAt    uint64
	ActAllowed uint64
	PreAllowed uint64
}

// QueuedState mirrors one queued (possibly issued) request.
type QueuedState struct {
	Req       Request
	Issued    bool
	Conflict  bool
	Activated bool
	DoneAt    uint64
}

// State is a complete snapshot of a Controller. The controller keeps its own
// cycle clock (Enqueue stamps arrivals with it), so it must round-trip
// exactly.
type State struct {
	Banks        []BankState
	Queue        []QueuedState
	BusFreeAt    uint64
	LastActCycle uint64
	Stats        Stats
	Cycle        uint64
}

// SaveStateInto captures the controller's mutable state, reusing the backing
// arrays st already has.
func (c *Controller) SaveStateInto(st *State) {
	st.Banks = wire.Resize(st.Banks, len(c.banks))
	st.Queue = st.Queue[:0]
	st.BusFreeAt = c.busFreeAt
	st.LastActCycle = c.lastActCycle
	st.Stats = c.stats
	st.Cycle = c.cycle
	live := append(make([]int32, 0, c.count), c.inflight...)
	for i, b := range c.banks {
		st.Banks[i] = BankState{
			OpenRow:    b.openRow,
			ReadyAt:    b.readyAt,
			ActAllowed: b.actAllowed,
			PreAllowed: b.preAllowed,
		}
		for j := b.head; j >= 0; j = c.slots[j].next {
			live = append(live, j)
		}
	}
	// The queue is saved in arrival order, issued and un-issued interleaved.
	slices.SortFunc(live, func(a, b int32) int { return cmp.Compare(c.slots[a].seq, c.slots[b].seq) })
	for _, i := range live {
		q := &c.slots[i]
		st.Queue = append(st.Queue, QueuedState{
			Req:       q.req,
			Issued:    q.issued,
			Conflict:  q.conflict,
			Activated: q.activated,
			DoneAt:    q.doneAt,
		})
	}
}

// AppendTo appends the state's wire form: the counted banks, the counted
// queue, then the scalars and statistics.
func (st *State) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(st.Banks)))
	for _, k := range st.Banks {
		b = wire.AppendUvarint(b, uint64(k.OpenRow+1)) // -1, no row open, is a zero byte
		b = wire.AppendUvarint(b, k.ReadyAt)
		b = wire.AppendUvarint(b, k.ActAllowed)
		b = wire.AppendUvarint(b, k.PreAllowed)
	}
	b = wire.AppendUvarint(b, uint64(len(st.Queue)))
	for _, q := range st.Queue {
		b = wire.AppendUvarint(b, q.Req.ID)
		b = wire.AppendInt(b, q.Req.Bank)
		b = wire.AppendUvarint(b, q.Req.Row)
		b = wire.AppendBool(b, q.Req.Write)
		b = wire.AppendUvarint(b, q.Req.Arrival)
		b = wire.AppendInt(b, q.Req.Meta.Slice)
		b = wire.AppendUvarint(b, q.Req.Meta.Addr)
		b = wire.AppendBool(b, q.Req.Meta.Fill)
		b = wire.AppendBool(b, q.Issued)
		b = wire.AppendBool(b, q.Conflict)
		b = wire.AppendBool(b, q.Activated)
		b = wire.AppendUvarint(b, q.DoneAt)
	}
	b = wire.AppendUvarint(b, st.BusFreeAt)
	b = wire.AppendUvarint(b, st.LastActCycle)
	b = wire.AppendUvarint(b, st.Cycle)
	for _, p := range st.Stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	return b
}

// ReadFrom overwrites the state with the next one in r, reusing the backing
// arrays it already has.
func (st *State) ReadFrom(r *wire.Reader) {
	st.Banks = wire.Resize(st.Banks, r.Count(4))
	for i := range st.Banks {
		st.Banks[i] = BankState{
			OpenRow:    int64(r.Uvarint()) - 1,
			ReadyAt:    r.Uvarint(),
			ActAllowed: r.Uvarint(),
			PreAllowed: r.Uvarint(),
		}
	}
	st.Queue = wire.Resize(st.Queue, r.Count(12))
	for i := range st.Queue {
		q := &st.Queue[i]
		q.Req.ID = r.Uvarint()
		q.Req.Bank = r.Int()
		q.Req.Row = r.Uvarint()
		q.Req.Write = r.Bool()
		q.Req.Arrival = r.Uvarint()
		q.Req.Meta.Slice = r.Int()
		q.Req.Meta.Addr = r.Uvarint()
		q.Req.Meta.Fill = r.Bool()
		q.Issued = r.Bool()
		q.Conflict = r.Bool()
		q.Activated = r.Bool()
		q.DoneAt = r.Uvarint()
	}
	st.BusFreeAt = r.Uvarint()
	st.LastActCycle = r.Uvarint()
	st.Cycle = r.Uvarint()
	for _, p := range st.Stats.counters() {
		*p = r.Uvarint()
	}
}

// counters lists the statistics in wire order.
func (s *Stats) counters() [11]*uint64 {
	return [...]*uint64{&s.Requests, &s.Reads, &s.Writes, &s.RowHits, &s.RowMisses,
		&s.RowConflicts, &s.BytesMoved, &s.BusyCycles, &s.TotalQueueing, &s.Completed, &s.StallsFull}
}

// RestoreState overwrites the controller's mutable state with a snapshot
// taken from a controller built under the same configuration.
func (c *Controller) RestoreState(st State) error {
	if len(st.Banks) != len(c.banks) {
		return fmt.Errorf("dram %d: snapshot has %d banks, controller has %d", c.id, len(st.Banks), len(c.banks))
	}
	if len(st.Queue) > c.queueCap {
		return fmt.Errorf("dram %d: snapshot queue %d exceeds capacity %d", c.id, len(st.Queue), c.queueCap)
	}
	for i, b := range st.Banks {
		c.banks[i] = bankState{
			openRow:    b.OpenRow,
			readyAt:    b.ReadyAt,
			actAllowed: b.ActAllowed,
			preAllowed: b.PreAllowed,
		}
	}
	c.clearQueue()
	c.busFreeAt = st.BusFreeAt
	c.lastActCycle = st.LastActCycle
	c.stats = st.Stats
	c.cycle = st.Cycle
	// The bank FIFOs and summaries, the in-flight list, nextDone and the
	// ready calendar are derived: re-queue the saved requests in their saved
	// (arrival) order.
	for _, q := range st.Queue {
		if q.Req.Bank < 0 || q.Req.Bank >= len(c.banks) {
			return fmt.Errorf("dram %d: snapshot request for bank %d, controller has %d", c.id, q.Req.Bank, len(c.banks))
		}
		i := c.take(queued{
			req:       q.Req,
			issued:    q.Issued,
			conflict:  q.Conflict,
			activated: q.Activated,
			doneAt:    q.DoneAt,
		})
		if q.Issued {
			c.fly(i)
		} else {
			c.link(i)
		}
	}
	return nil
}
