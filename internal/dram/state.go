package dram

import (
	"cmp"
	"fmt"
	"slices"
)

// BankState mirrors one bank's timing state machine for serialization.
type BankState struct {
	OpenRow      int64
	ReadyAt      uint64
	ActAllowed   uint64
	PreAllowed   uint64
	LastActivate uint64
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

// SaveState captures the controller's mutable state.
func (c *Controller) SaveState() State {
	st := State{
		Banks:        make([]BankState, len(c.banks)),
		Queue:        make([]QueuedState, 0, c.count),
		BusFreeAt:    c.busFreeAt,
		LastActCycle: c.lastActCycle,
		Stats:        c.stats,
		Cycle:        c.cycle,
	}
	live := append(make([]int32, 0, c.count), c.inflight...)
	for i, b := range c.banks {
		st.Banks[i] = BankState{
			OpenRow:      b.openRow,
			ReadyAt:      b.readyAt,
			ActAllowed:   b.actAllowed,
			PreAllowed:   b.preAllowed,
			LastActivate: b.lastActivate,
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
	return st
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
			openRow:      b.OpenRow,
			readyAt:      b.ReadyAt,
			actAllowed:   b.ActAllowed,
			preAllowed:   b.PreAllowed,
			lastActivate: b.LastActivate,
		}
	}
	c.clearQueue()
	c.busFreeAt = st.BusFreeAt
	c.lastActCycle = st.LastActCycle
	c.stats = st.Stats
	c.cycle = st.Cycle
	// The bank FIFOs, hit counts, in-flight list and both bounds are derived:
	// re-queue the saved requests in their saved (arrival) order.
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
	c.idleUntil = 0
	return nil
}
