// Package dram models the GPU's GDDR5 memory controllers.
//
// Each Controller owns a set of banks and an FR-FCFS (first-ready,
// first-come-first-served) scheduler: among queued requests it prefers row
// hits (the open-row policy), breaking ties by arrival order. Bank state
// machines enforce the GDDR5 timing parameters from Table 1 of the paper
// (tRCD, tRP, tRC, tRAS, tCL, tCCD, tWR, tRRD) and a shared data bus limits
// the sustained bandwidth per controller.
//
// The controller is cycle-driven: the owner calls Tick once per core cycle
// and collects completed requests.
package dram

import (
	"fmt"
	"math"

	"repro/internal/config"
)

// Meta carries caller context through the controller: the originating LLC
// slice, the line address, and whether the read must fill the slice on
// completion. It is a concrete struct rather than an `any` so that enqueueing
// a request does not box an allocation on the per-cycle hot path.
type Meta struct {
	Slice int
	Addr  uint64
	Fill  bool
}

// Request is one cache-line-sized memory transaction presented to a
// controller.
type Request struct {
	ID      uint64
	Bank    int
	Row     uint64
	Write   bool
	Arrival uint64 // cycle the request entered the controller queue
	Meta    Meta
}

// Completion reports a request whose data transfer finished this cycle.
type Completion struct {
	Req Request
}

// Stats aggregates controller activity.
type Stats struct {
	Requests      uint64
	Reads         uint64
	Writes        uint64
	RowHits       uint64
	RowMisses     uint64 // row closed, needed activate only
	RowConflicts  uint64 // different row open, needed precharge + activate
	BytesMoved    uint64
	BusyCycles    uint64 // cycles with the data bus occupied
	TotalQueueing uint64 // sum over requests of (issue cycle - arrival cycle)
	Completed     uint64
	StallsFull    uint64 // enqueue attempts rejected because the queue was full
}

// AvgQueueingDelay returns the mean cycles a request waited before being
// issued to a bank.
func (s Stats) AvgQueueingDelay() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TotalQueueing) / float64(s.Completed)
}

// RowHitRate returns the fraction of issued requests that hit an open row.
func (s Stats) RowHitRate() float64 {
	issued := s.RowHits + s.RowMisses + s.RowConflicts
	if issued == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(issued)
}

type bankState struct {
	openRow      int64  // -1 if no row open
	readyAt      uint64 // earliest cycle the bank can accept a column command
	actAllowed   uint64 // earliest cycle a new ACT may issue (tRC from last ACT)
	preAllowed   uint64 // earliest cycle a PRE may issue (tRAS from last ACT)
	lastActivate uint64

	// head and tail delimit the bank's FIFO of un-issued requests (slot
	// indices linked through queued.next, oldest first; -1 when empty), and
	// hits counts those among them that target the open row. Both are derived
	// state: RestoreState rebuilds them from the saved queue.
	head, tail int32
	hits       int32
}

type queued struct {
	req    Request
	issued bool
	// conflict records that this request forced a precharge of another open
	// row; activated records that it needed a row activation. Together they
	// classify the request as a row hit, row miss or row conflict exactly
	// once, when its column command issues.
	conflict  bool
	activated bool
	// doneAt is the cycle the data transfer finishes once issued.
	doneAt uint64
	// seq is the arrival sequence number. FR-FCFS "oldest first", the order
	// of same-cycle completions and SaveState's queue order all follow it.
	seq uint64
	// next links the slot into its bank's un-issued FIFO or the free list.
	next int32
}

// never is the bound of an event nothing queued can cause.
const never = math.MaxUint64

// Controller is one GDDR5 memory controller (channel).
//
// Requests live in a fixed slot array. An un-issued request sits in its
// bank's FIFO, an issued one in inflight, so a cycle's work is bounded by the
// number of banks and of transfers in flight rather than by the queue depth,
// and two bounds let a cycle on which nothing can happen skip even that:
// nextDone (no transfer finishes before it) and idleUntil (no command can
// issue before it).
type Controller struct {
	id           int
	timing       config.GDDRTiming
	banks        []bankState
	slots        []queued // one allocation for the whole queue
	free         int32    // head of the free-slot list (-1 when full)
	count        int      // requests queued or in flight
	inflight     []int32  // issued slots, oldest arrival first
	nextSeq      uint64
	queueCap     int
	burstCycles  int // cycles of data-bus occupancy per request
	lineBytes    int
	busFreeAt    uint64
	lastActCycle uint64 // for tRRD across banks
	stats        Stats
	cycle        uint64
	done         []Completion // reused buffer returned by Tick

	// nextDone is the earliest doneAt in flight. idleUntil is the earliest
	// cycle at which any timing threshold a scheduling scan found unmet
	// (readyAt, busFreeAt, actAllowed, lastActCycle+tRRD, preAllowed) can
	// flip. Those inputs change only when a command issues (issueOne
	// recomputes the bound) and on Enqueue, which can only pull the bound
	// forward to the newcomer's own threshold (see link).
	nextDone  uint64
	idleUntil uint64
}

// NewController builds a memory controller from the GPU configuration.
func NewController(id int, cfg config.Config) *Controller {
	cfg = cfg.Normalize()
	burst := (cfg.LLCLineBytes + cfg.BusBytesPerCycle - 1) / cfg.BusBytesPerCycle
	if burst < 1 {
		burst = 1
	}
	depth := cfg.MCQueueDepth
	c := &Controller{
		id:          id,
		timing:      cfg.Timing,
		banks:       make([]bankState, cfg.BanksPerMC),
		slots:       make([]queued, depth),
		inflight:    make([]int32, 0, depth),
		queueCap:    depth,
		burstCycles: burst,
		lineBytes:   cfg.LLCLineBytes,
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	c.clearQueue()
	return c
}

// clearQueue empties every bank FIFO and the in-flight list and threads all
// slots onto the free list.
func (c *Controller) clearQueue() {
	for i := range c.banks {
		b := &c.banks[i]
		b.head, b.tail, b.hits = -1, -1, 0
	}
	for i := range c.slots {
		c.slots[i].next = int32(i) + 1
	}
	c.free = -1
	if len(c.slots) > 0 {
		c.slots[len(c.slots)-1].next = -1
		c.free = 0
	}
	c.inflight = c.inflight[:0]
	c.count = 0
	c.nextSeq = 0
	c.nextDone, c.idleUntil = never, never
}

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats clears the statistics counters (in-flight state is preserved).
func (c *Controller) ResetStats() { c.stats = Stats{} }

// Accepts is the refusing half of Enqueue on its own: it reports whether an
// Enqueue would succeed now and counts a false answer as the StallsFull the
// failed Enqueue would have been. A caller that asks first need not build a
// request only to have it refused.
func (c *Controller) Accepts() bool {
	if c.count < c.queueCap {
		return true
	}
	c.stats.StallsFull++
	return false
}

// Enqueue adds a request to the controller queue. It returns false if the
// queue is full, in which case the caller must retry later.
func (c *Controller) Enqueue(req Request) bool {
	if !c.Accepts() {
		return false
	}
	if req.Bank < 0 || req.Bank >= len(c.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", req.Bank, len(c.banks)))
	}
	req.Arrival = c.cycle
	c.link(c.take(queued{req: req}))
	c.stats.Requests++
	if req.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	return true
}

// take moves q into a free slot as the youngest arrival.
func (c *Controller) take(q queued) int32 {
	i := c.free
	c.free = c.slots[i].next
	q.seq, q.next = c.nextSeq, -1
	c.slots[i] = q
	c.nextSeq++
	c.count++
	return i
}

// link appends un-issued slot i to its bank's FIFO. The newcomer leaves
// every threshold behind idleUntil as it was, so it can pull the bound forward
// only to the cycle its own command becomes possible — and only if it is one
// the scheduler looks at: the bank's oldest request, or an open-row hit.
func (c *Controller) link(i int32) {
	q := &c.slots[i]
	b := &c.banks[q.req.Bank]
	hit := b.openRow == int64(q.req.Row)
	if hit {
		b.hits++
	}
	if b.head < 0 {
		b.head = i
	} else {
		c.slots[b.tail].next = i
	}
	b.tail = i
	if hit || b.head == i {
		c.idleUntil = min(c.idleUntil, c.commandAt(b, q.req.Row))
	}
}

// commandAt returns the first cycle bank b can take the next command of a
// request for row: the column command on an open-row hit, an activate on a
// closed bank (tRC since its last ACT, tRRD since any bank's), otherwise a
// precharge (tRAS since the ACT, and the bank idle).
func (c *Controller) commandAt(b *bankState, row uint64) uint64 {
	switch b.openRow {
	case int64(row):
		return max(b.readyAt, c.busFreeAt)
	case -1:
		return max(b.actAllowed, c.lastActCycle+uint64(c.timing.TRRD))
	default:
		return max(b.preAllowed, b.readyAt)
	}
}

// Tick advances the controller by one cycle and returns any completions. The
// returned slice is a buffer owned by the controller and is only valid until
// the next call to Tick.
func (c *Controller) Tick() []Completion {
	c.cycle++
	c.done = c.done[:0]
	if c.cycle >= c.nextDone {
		c.collectDone()
	}
	if c.cycle < c.busFreeAt {
		c.stats.BusyCycles++
	}
	if c.cycle >= c.idleUntil {
		c.issueOne()
	}
	return c.done
}

// collectDone retires the finished transfers, oldest arrival first, and
// recomputes nextDone.
func (c *Controller) collectDone() {
	c.nextDone = never
	keep := c.inflight[:0]
	for _, i := range c.inflight {
		q := &c.slots[i]
		if c.cycle < q.doneAt {
			keep = append(keep, i)
			c.nextDone = min(c.nextDone, q.doneAt)
			continue
		}
		c.done = append(c.done, Completion{Req: q.req})
		c.stats.Completed++
		q.next = c.free
		c.free = i
		c.count--
	}
	c.inflight = keep
}

// issueOne issues at most one command, FR-FCFS: the oldest open-row request
// whose bank and the bus are ready gets its column command; failing that, the
// oldest request that heads its bank's FIFO and whose bank can take a row
// command gets it (activate, or precharge of a conflicting row). Only a
// bank's oldest request may move its row — a younger one must not close a row
// the older one is waiting on — but a bank that is busy never blocks another:
// bank-level parallelism is what GPUs rely on for DRAM throughput.
//
// The scan also yields the next idleUntil: the earliest threshold that said
// no. A command only ever pushes the other banks' thresholds later
// (busFreeAt and lastActCycle grow), so those stay valid lower bounds after
// it; the bank it touched is asked again, and a second candidate that was
// ready but lost the arbitration means looking again next cycle.
func (c *Controller) issueOne() {
	col, colPrev, rowBank, ready := int32(-1), int32(-1), -1, 0
	colSeq, rowSeq, wake := uint64(never), uint64(never), uint64(never)
	for bi := range c.banks {
		b := &c.banks[bi]
		if b.head < 0 {
			continue
		}
		if b.hits > 0 {
			if at := max(b.readyAt, c.busFreeAt); c.cycle < at {
				wake = min(wake, at)
			} else {
				ready++
				prev, i := int32(-1), b.head
				for int64(c.slots[i].req.Row) != b.openRow {
					prev, i = i, c.slots[i].next
				}
				if seq := c.slots[i].seq; seq < colSeq {
					col, colPrev, colSeq = i, prev, seq
				}
			}
		}
		h := &c.slots[b.head]
		if b.openRow == int64(h.req.Row) {
			continue // the head is itself a hit: it waits for its column command
		}
		if at := c.commandAt(b, h.req.Row); c.cycle < at {
			wake = min(wake, at)
		} else {
			ready++
			if h.seq < rowSeq {
				rowBank, rowSeq = bi, h.seq
			}
		}
	}
	var b *bankState
	switch {
	case col >= 0:
		b = &c.banks[c.slots[col].req.Bank]
		c.issueColumn(col, colPrev)
	case rowBank >= 0:
		b = &c.banks[rowBank]
		if q := &c.slots[b.head]; b.openRow == -1 {
			c.activate(q, b)
		} else {
			// Conflict: precharge now, activate on a later cycle once tRP
			// has elapsed.
			b.openRow, b.hits = -1, 0
			b.actAllowed = max(b.actAllowed, c.cycle+uint64(c.timing.TRP))
			q.conflict = true
		}
	default:
		c.idleUntil = wake
		return
	}
	if ready > 1 {
		wake = 0
	}
	if b.hits > 0 {
		wake = min(wake, max(b.readyAt, c.busFreeAt))
	}
	if b.head >= 0 {
		wake = min(wake, c.commandAt(b, c.slots[b.head].req.Row))
	}
	c.idleUntil = wake
}

// activate opens the row needed by q, the oldest request of bank b.
func (c *Controller) activate(q *queued, b *bankState) {
	b.openRow = int64(q.req.Row)
	b.lastActivate = c.cycle
	b.readyAt = c.cycle + uint64(c.timing.TRCD)
	b.actAllowed = c.cycle + uint64(c.timing.TRC)
	b.preAllowed = c.cycle + uint64(c.timing.TRAS)
	c.lastActCycle = c.cycle
	q.activated = true
	b.hits = 0
	for i := b.head; i >= 0; i = c.slots[i].next {
		if int64(c.slots[i].req.Row) == b.openRow {
			b.hits++
		}
	}
}

// issueColumn issues the column (read/write) command for slot i, whose
// predecessor in its bank's FIFO is prev (-1 at the head), classifies its row
// outcome and moves it from the FIFO to the in-flight list.
func (c *Controller) issueColumn(i, prev int32) {
	q := &c.slots[i]
	b := &c.banks[q.req.Bank]
	switch {
	case q.conflict:
		c.stats.RowConflicts++
	case q.activated:
		c.stats.RowMisses++
	default:
		c.stats.RowHits++
	}
	latency := uint64(c.timing.TCL)
	if q.req.Write {
		latency = uint64(c.timing.TWR)
	}
	q.issued = true
	q.doneAt = c.cycle + latency + uint64(c.burstCycles) // the bus is free: issueOne checked
	c.busFreeAt = c.cycle + uint64(c.burstCycles)
	b.readyAt = max(b.readyAt, c.cycle+uint64(c.timing.TCCD))
	c.stats.BytesMoved += uint64(c.lineBytes)
	c.stats.TotalQueueing += c.cycle - q.req.Arrival

	if prev < 0 {
		b.head = q.next
	} else {
		c.slots[prev].next = q.next
	}
	if b.tail == i {
		b.tail = prev
	}
	b.hits--
	c.fly(i)
}

// fly adds issued slot i to the in-flight list, kept in arrival order so
// that transfers finishing on the same cycle complete oldest first.
func (c *Controller) fly(i int32) {
	q := &c.slots[i]
	c.inflight = append(c.inflight, i)
	for j := len(c.inflight) - 1; j > 0 && c.slots[c.inflight[j-1]].seq > q.seq; j-- {
		c.inflight[j], c.inflight[j-1] = c.inflight[j-1], c.inflight[j]
	}
	c.nextDone = min(c.nextDone, q.doneAt)
}

// Drain reports whether the controller has no pending work (used when the
// adaptive LLC reconfigures and must wait for the memory system to go idle).
func (c *Controller) Drain() bool { return c.count == 0 }
