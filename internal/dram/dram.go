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
	"math/bits"

	"repro/internal/config"
	"repro/internal/wire"
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
	openRow    int64  // -1 if no row open
	readyAt    uint64 // earliest cycle the bank can accept a column command
	actAllowed uint64 // earliest cycle a new ACT may issue (tRC from last ACT)
	preAllowed uint64 // earliest cycle a PRE may issue (tRAS from last ACT)

	// The rest is derived: RestoreState rebuilds it through link. head and
	// tail delimit the bank's FIFO of un-issued requests (slot indices linked
	// through queued.next, oldest first; -1 when empty); headRow and headSeq
	// are the head's row and arrival sequence number. hits counts the FIFO's
	// requests for the open row; the oldest of them is slot hit, its
	// predecessor in the FIFO hitPrev (-1: it is the head) and its sequence
	// number hitSeq. filed is the cycle the ready calendar holds the bank for
	// (never: it is not filed).
	head, tail   int32
	hits         int32
	hit, hitPrev int32
	headRow      uint64
	headSeq      uint64
	hitSeq       uint64
	filed        uint64
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
	// of same-cycle completions and AppendState's queue order all follow it.
	seq uint64
	// next links the slot into its bank's un-issued FIFO or the free list.
	next int32
}

// never is the bound of an event nothing queued can cause.
const never = math.MaxUint64

// horizon is how far ahead of the controller's cycle the ready calendar files
// a bank: its 64 slots hold cycles cycle+1 .. cycle+horizon, one per slot.
const horizon = 63

// Controller is one GDDR5 memory controller (channel).
//
// Requests live in a fixed slot array. An un-issued request sits in its
// bank's FIFO, an issued one in inflight, and each bank keeps a summary of
// its FIFO (head row and sequence number, oldest open-row hit), so picking a
// command loads no queue slot but those of the command it issues. nextDone
// says when the next transfer finishes; the ready calendar says which banks
// can take a command.
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

	// nextDone is the earliest doneAt in flight.
	nextDone uint64

	// The ready calendar, derived from the bank summaries and the cycle
	// (refresh, rebuild). A bank's own thresholds decide which sets it is in:
	// hitReady holds the banks with an open-row request and readyAt passed,
	// actReady the closed banks whose head's actAllowed has passed, preReady
	// the banks whose head needs another row and whose preAllowed and readyAt
	// have passed. The shared thresholds, busFreeAt for a column and
	// lastActCycle+tRRD for an activate, are tested once per pick. A bank
	// whose next own threshold lies within the horizon is in the calendar
	// slot of that cycle, slot t&63 holding the banks filed for cycle t;
	// farMin is the earliest threshold beyond it (never: none). Bitsets are
	// words long; calBusy has bit t&63 set while slot t&63 may hold a bank.
	words                        int
	hitReady, actReady, preReady []uint64
	cal                          []uint64
	calBusy                      uint64
	farMin                       uint64
}

// NewController builds a memory controller from the GPU configuration.
func NewController(id int, cfg config.Config) *Controller {
	cfg = cfg.Normalize()
	burst := (cfg.LLCLineBytes + cfg.BusBytesPerCycle - 1) / cfg.BusBytesPerCycle
	if burst < 1 {
		burst = 1
	}
	depth := cfg.MCQueueDepth
	words := wire.BitWords(cfg.BanksPerMC)
	sets := make([]uint64, (3+64)*words) // the three ready sets, then the calendar
	c := &Controller{
		id:          id,
		timing:      cfg.Timing,
		banks:       make([]bankState, cfg.BanksPerMC),
		slots:       make([]queued, depth),
		inflight:    make([]int32, 0, depth),
		queueCap:    depth,
		burstCycles: burst,
		lineBytes:   cfg.LLCLineBytes,
		words:       words,
		hitReady:    sets[:words],
		actReady:    sets[words : 2*words],
		preReady:    sets[2*words : 3*words],
		cal:         sets[3*words:],
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	c.clearQueue()
	return c
}

// clearQueue empties every bank FIFO, the in-flight list and the ready
// calendar and threads all slots onto the free list.
func (c *Controller) clearQueue() {
	for i := range c.banks {
		b := &c.banks[i]
		b.head, b.tail, b.hits, b.hit, b.filed = -1, -1, 0, -1, never
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
	c.nextDone = never
	c.clearCalendar()
}

// clearCalendar empties the ready sets and the calendar.
func (c *Controller) clearCalendar() {
	clear(c.hitReady)
	clear(c.actReady)
	clear(c.preReady)
	clear(c.cal)
	c.calBusy, c.farMin = 0, never
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

// link appends un-issued slot i to its bank's FIFO, keeps the bank's
// summary and refiles the bank.
func (c *Controller) link(i int32) {
	q := &c.slots[i]
	bi := q.req.Bank
	b := &c.banks[bi]
	if b.head < 0 {
		b.head, b.headRow, b.headSeq = i, q.req.Row, q.seq
	} else {
		c.slots[b.tail].next = i
	}
	if b.openRow == int64(q.req.Row) {
		if b.hits == 0 {
			b.hit, b.hitPrev, b.hitSeq = i, b.tail, q.seq
		}
		b.hits++
	}
	b.tail = i
	c.refresh(bi)
}

// refresh puts bank bi in the ready sets its own thresholds allow now, and
// files it for the earliest of them still to come. The bank's summary and
// thresholds change only at link, a command and a precharge, each of which
// refreshes the bank, so a bank is never filed later than it can act.
func (c *Controller) refresh(bi int) {
	b := &c.banks[bi]
	c.unfile(bi)
	colAt, rowAt, act := uint64(never), uint64(never), false
	if b.hits > 0 {
		colAt = b.readyAt
	}
	if b.head >= 0 && b.openRow != int64(b.headRow) {
		if act = b.openRow == -1; act {
			rowAt = b.actAllowed
		} else {
			rowAt = max(b.preAllowed, b.readyAt)
		}
	}
	k, bit := bi>>6, uint64(1)<<(bi&63)
	c.hitReady[k] &^= bit
	c.actReady[k] &^= bit
	c.preReady[k] &^= bit
	next := uint64(never)
	if colAt <= c.cycle {
		c.hitReady[k] |= bit
	} else {
		next = colAt
	}
	switch {
	case rowAt > c.cycle:
		next = min(next, rowAt)
	case act:
		c.actReady[k] |= bit
	default:
		c.preReady[k] |= bit
	}
	if next == never {
		return
	}
	b.filed = next
	if next-c.cycle <= horizon {
		c.cal[int(next&63)*c.words+k] |= bit
		c.calBusy |= 1 << (next & 63)
	} else {
		c.farMin = min(c.farMin, next)
	}
}

// unfile takes bank bi out of the calendar slot it is filed in. A bank filed
// beyond the horizon leaves farMin as it is: a bound that is too early costs
// one rebuild.
func (c *Controller) unfile(bi int) {
	b := &c.banks[bi]
	if at := b.filed; at != never && at-c.cycle <= horizon {
		c.cal[int(at&63)*c.words+bi>>6] &^= 1 << (bi & 63)
	}
	b.filed = never
}

// advance refreshes the banks filed for the controller's new cycle. A bank
// filed beyond the horizon coming within it rebuilds the calendar.
func (c *Controller) advance() {
	if c.farMin <= c.cycle+horizon {
		c.rebuild()
		return
	}
	t := c.cycle & 63
	if c.calBusy>>t&1 == 0 {
		return
	}
	c.calBusy &^= 1 << t
	slot := c.cal[int(t)*c.words:][:c.words]
	for k, word := range slot {
		slot[k] = 0
		for ; word != 0; word &= word - 1 {
			bi := k<<6 + bits.TrailingZeros64(word)
			c.banks[bi].filed = never
			c.refresh(bi)
		}
	}
}

// rebuild derives the ready sets and the calendar from the banks.
func (c *Controller) rebuild() {
	c.clearCalendar()
	for bi := range c.banks {
		c.banks[bi].filed = never
		c.refresh(bi)
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
	// With no request waiting for a command no bank is filed, so the
	// calendar may lag: a stale calBusy bit costs a visit to an empty slot, a
	// stale farMin one rebuild.
	if c.count > len(c.inflight) {
		c.advance()
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
// bank-level parallelism is what GPUs rely on for DRAM throughput. The
// candidates are the ready sets' banks, compared by the sequence numbers
// their summaries hold.
func (c *Controller) issueOne() {
	pick, seq := -1, uint64(never)
	if c.cycle >= c.busFreeAt {
		for k, word := range c.hitReady {
			for ; word != 0; word &= word - 1 {
				bi := k<<6 + bits.TrailingZeros64(word)
				if s := c.banks[bi].hitSeq; s < seq {
					pick, seq = bi, s
				}
			}
		}
		if pick >= 0 {
			c.issueColumn(pick)
			c.refresh(pick)
			return
		}
	}
	actOK := c.cycle >= c.lastActCycle+uint64(c.timing.TRRD)
	for k, word := range c.preReady {
		if actOK {
			word |= c.actReady[k]
		}
		for ; word != 0; word &= word - 1 {
			bi := k<<6 + bits.TrailingZeros64(word)
			if s := c.banks[bi].headSeq; s < seq {
				pick, seq = bi, s
			}
		}
	}
	if pick < 0 {
		return
	}
	if b := &c.banks[pick]; b.openRow == -1 {
		c.activate(b)
	} else {
		// Conflict: precharge now, activate on a later cycle once tRP has
		// elapsed.
		b.openRow, b.hits = -1, 0
		b.actAllowed = max(b.actAllowed, c.cycle+uint64(c.timing.TRP))
		c.slots[b.head].conflict = true
	}
	c.refresh(pick)
}

// activate opens the row needed by the oldest request of bank b, which
// becomes the bank's oldest hit.
func (c *Controller) activate(b *bankState) {
	b.openRow = int64(b.headRow)
	b.readyAt = c.cycle + uint64(c.timing.TRCD)
	b.actAllowed = c.cycle + uint64(c.timing.TRC)
	b.preAllowed = c.cycle + uint64(c.timing.TRAS)
	c.lastActCycle = c.cycle
	c.slots[b.head].activated = true
	b.hits = 0
	for i := b.head; i >= 0; i = c.slots[i].next {
		if int64(c.slots[i].req.Row) == b.openRow {
			b.hits++
		}
	}
	b.hit, b.hitPrev, b.hitSeq = b.head, -1, b.headSeq
}

// issueColumn issues the column (read/write) command for bank bi's oldest
// hit, classifies its row outcome, moves it from the FIFO to the in-flight
// list and finds the bank's next hit.
func (c *Controller) issueColumn(bi int) {
	b := &c.banks[bi]
	i, prev := b.hit, b.hitPrev
	q := &c.slots[i]
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
		if b.head >= 0 {
			h := &c.slots[b.head]
			b.headRow, b.headSeq = h.req.Row, h.seq
		}
	} else {
		c.slots[prev].next = q.next
	}
	if b.tail == i {
		b.tail = prev
	}
	// Every request ahead of the issued one was for another row, so the next
	// hit, if any, is behind it.
	if b.hits--; b.hits > 0 {
		p, j := prev, q.next
		for int64(c.slots[j].req.Row) != b.openRow {
			p, j = j, c.slots[j].next
		}
		b.hit, b.hitPrev, b.hitSeq = j, p, c.slots[j].seq
	}
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
