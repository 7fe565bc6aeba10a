package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
)

// refController is the controller as it was before the per-bank rewrite: one
// arrival-ordered queue, scanned in full three times a cycle (completions,
// ready row hits, oldest request per bank). It is kept as the definition the
// event-bounded Controller must reproduce completion for completion, counter
// for counter and snapshot for snapshot. The only change is that the "an
// older request owns this bank" marks cover every bank, not the first 64.
type refController struct {
	timing       config.GDDRTiming
	banks        []BankState
	queue        []QueuedState
	queueCap     int
	burstCycles  int
	lineBytes    int
	busFreeAt    uint64
	lastActCycle uint64
	stats        Stats
	cycle        uint64
	done         []Completion
	touched      []bool
}

func newRefController(cfg config.Config) *refController {
	cfg = cfg.Normalize()
	burst := (cfg.LLCLineBytes + cfg.BusBytesPerCycle - 1) / cfg.BusBytesPerCycle
	if burst < 1 {
		burst = 1
	}
	banks := make([]BankState, cfg.BanksPerMC)
	for i := range banks {
		banks[i].OpenRow = -1
	}
	return &refController{
		timing:      cfg.Timing,
		banks:       banks,
		queueCap:    cfg.MCQueueDepth,
		burstCycles: burst,
		lineBytes:   cfg.LLCLineBytes,
		touched:     make([]bool, cfg.BanksPerMC),
	}
}

func (c *refController) Enqueue(req Request) bool {
	if len(c.queue) >= c.queueCap {
		c.stats.StallsFull++
		return false
	}
	req.Arrival = c.cycle
	c.queue = append(c.queue, QueuedState{Req: req})
	c.stats.Requests++
	if req.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	return true
}

func (c *refController) Tick() []Completion {
	c.cycle++
	c.done = c.done[:0]
	keep := 0
	for i := range c.queue {
		q := &c.queue[i]
		if q.Issued && c.cycle >= q.DoneAt {
			c.done = append(c.done, Completion{Req: q.Req})
			c.stats.Completed++
		} else {
			c.queue[keep] = *q
			keep++
		}
	}
	c.queue = c.queue[:keep]
	if c.cycle < c.busFreeAt {
		c.stats.BusyCycles++
	}
	c.issueOne()
	return c.done
}

func (c *refController) issueOne() {
	// Pass 1: ready row hits, oldest first (queue order is arrival order).
	for i := range c.queue {
		q := &c.queue[i]
		if q.Issued {
			continue
		}
		b := &c.banks[q.Req.Bank]
		if b.OpenRow == int64(q.Req.Row) && c.cycle >= b.ReadyAt && c.cycle >= c.busFreeAt {
			c.issueColumn(q, b)
			return
		}
	}
	// Pass 2: one row command, for the oldest request of some bank.
	clear(c.touched)
	for i := range c.queue {
		q := &c.queue[i]
		if q.Issued || c.touched[q.Req.Bank] {
			continue
		}
		c.touched[q.Req.Bank] = true
		b := &c.banks[q.Req.Bank]
		switch {
		case b.OpenRow == int64(q.Req.Row):
			continue
		case b.OpenRow == -1:
			if c.cycle >= b.ActAllowed && c.cycle >= c.lastActCycle+uint64(c.timing.TRRD) {
				b.OpenRow = int64(q.Req.Row)
				b.LastActivate = c.cycle
				b.ReadyAt = c.cycle + uint64(c.timing.TRCD)
				b.ActAllowed = c.cycle + uint64(c.timing.TRC)
				b.PreAllowed = c.cycle + uint64(c.timing.TRAS)
				c.lastActCycle = c.cycle
				q.Activated = true
				return
			}
		default:
			if c.cycle >= b.PreAllowed && c.cycle >= b.ReadyAt {
				b.OpenRow = -1
				b.ActAllowed = max(b.ActAllowed, c.cycle+uint64(c.timing.TRP))
				q.Conflict = true
				return
			}
		}
	}
}

func (c *refController) issueColumn(q *QueuedState, b *BankState) {
	switch {
	case q.Conflict:
		c.stats.RowConflicts++
	case q.Activated:
		c.stats.RowMisses++
	default:
		c.stats.RowHits++
	}
	latency := uint64(c.timing.TCL)
	if q.Req.Write {
		latency = uint64(c.timing.TWR)
	}
	start := max(c.cycle, c.busFreeAt)
	q.Issued = true
	q.DoneAt = start + latency + uint64(c.burstCycles)
	c.busFreeAt = start + uint64(c.burstCycles)
	b.ReadyAt = max(b.ReadyAt, c.cycle+uint64(c.timing.TCCD))
	c.stats.BytesMoved += uint64(c.lineBytes)
	c.stats.TotalQueueing += c.cycle - q.Req.Arrival
}

func (c *refController) saveState() State {
	return State{
		Banks:        append([]BankState{}, c.banks...),
		Queue:        append([]QueuedState(nil), c.queue...), // nil when empty, as the controller saves it
		BusFreeAt:    c.busFreeAt,
		LastActCycle: c.lastActCycle,
		Stats:        c.stats,
		Cycle:        c.cycle,
	}
}

func (c *refController) restoreState(st State) {
	c.banks = append(c.banks[:0], st.Banks...)
	c.queue = append(c.queue[:0], st.Queue...)
	c.busFreeAt, c.lastActCycle, c.stats, c.cycle = st.BusFreeAt, st.LastActCycle, st.Stats, st.Cycle
}

// trafficShape parameterises the randomized request stream of the
// differential drive.
type trafficShape struct {
	name      string
	banks     int     // BanksPerMC
	rows      int     // distinct rows per bank: 1-2 is row-hit heavy, many is conflict heavy
	writes    float64 // share of stores
	perCycle  int     // enqueue attempts per cycle (more than the controller drains = saturated)
	idleEvery int     // every idleEvery cycles the stream pauses for idleEvery/4 cycles (0 = never)
}

// TestControllerMatchesReference drives the event-bounded controller and the
// full-scan reference with the same randomized traffic and requires the same
// completions in the same order every cycle, the same refusals, the same
// statistics and the same snapshot — including across a mid-run
// SaveState/RestoreState onto an instance that has already been used.
func TestControllerMatchesReference(t *testing.T) {
	shapes := []trafficShape{
		{name: "saturated-conflict", banks: 16, rows: 4096, writes: 0.3, perCycle: 3},
		{name: "row-hit-heavy", banks: 16, rows: 2, writes: 0.2, perCycle: 2},
		{name: "bursty-mixed", banks: 16, rows: 8, writes: 0.5, perCycle: 2, idleEvery: 400},
		{name: "trickle", banks: 4, rows: 64, writes: 0.1, perCycle: 1, idleEvery: 8},
		{name: "128-banks", banks: 128, rows: 3, writes: 0.3, perCycle: 4},
	}
	cycles := 50000
	if testing.Short() {
		cycles = 8000
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := config.Baseline().Normalize()
			cfg.BanksPerMC = sh.banks
			cfg.MCQueueDepth = 64
			// TCL != TWR, and a burst short enough that a read and a later
			// write can finish on the same cycle.
			cfg.Timing.TCL, cfg.Timing.TWR = 12, 10
			got, ref := NewController(0, cfg), newRefController(cfg)
			used := NewController(0, cfg) // restore target with history of its own
			rng := rand.New(rand.NewSource(int64(len(sh.name)) * 7919))
			var id uint64
			sameCycle := 0
			for cyc := 0; cyc < cycles; cyc++ {
				paused := sh.idleEvery > 0 && cyc%sh.idleEvery < sh.idleEvery/4
				for k := 0; k < sh.perCycle && !paused; k++ {
					id++
					req := Request{
						ID:    id,
						Bank:  rng.Intn(sh.banks),
						Row:   uint64(rng.Intn(sh.rows)),
						Write: rng.Float64() < sh.writes,
						Meta:  Meta{Slice: rng.Intn(8), Addr: id << 7, Fill: rng.Intn(2) == 0},
					}
					used.Enqueue(req)
					if a, b := got.Enqueue(req), ref.Enqueue(req); a != b {
						t.Fatalf("cycle %d: Enqueue = %v, reference %v", cyc, a, b)
					}
				}
				used.Tick()
				d, rd := got.Tick(), ref.Tick()
				if len(d) != len(rd) || (len(d) > 0 && !reflect.DeepEqual(d, rd)) {
					t.Fatalf("cycle %d: completions\n got %+v\nwant %+v", cyc, d, rd)
				}
				if len(d) > 1 {
					sameCycle++
				}
				if got.count != len(ref.queue) {
					t.Fatalf("cycle %d: %d requests queued or in flight, reference %d", cyc, got.count, len(ref.queue))
				}
				if cyc%997 == 0 || cyc == cycles/2 {
					if a, b := snapshot(got), ref.saveState(); !reflect.DeepEqual(a, b) {
						t.Fatalf("cycle %d: snapshot\n got %+v\nwant %+v", cyc, a, b)
					}
				}
				if cyc == cycles/2 {
					// Continue on the used instance, restored from the
					// snapshot, and put the reference through the same.
					st := snapshot(got)
					if err := used.RestoreState(st); err != nil {
						t.Fatal(err)
					}
					got, used = used, got
					ref.restoreState(st)
				}
			}
			if got.Stats() != ref.stats {
				t.Fatalf("stats\n got %+v\nwant %+v", got.Stats(), ref.stats)
			}
			if got.Stats().Completed == 0 {
				t.Fatal("the drive completed nothing")
			}
			t.Logf("%d completed, %d refused, row-hit rate %.2f, %d cycles with several completions",
				got.Stats().Completed, got.Stats().StallsFull, got.Stats().RowHitRate(), sameCycle)
		})
	}
}

// TestSameCycleCompletionsOldestFirst pins the order the differential drive
// relies on with a constructed case: a read and a younger, faster write that
// finish together complete in arrival order.
func TestSameCycleCompletionsOldestFirst(t *testing.T) {
	cfg := config.Baseline().Normalize()
	cfg.Timing.TCL = cfg.Timing.TWR + cfg.Timing.TCCD
	cfg.BusBytesPerCycle = cfg.LLCLineBytes / cfg.Timing.TCCD // burst = tCCD: back-to-back columns
	c := NewController(0, cfg)
	c.Enqueue(Request{ID: 1, Bank: 0, Row: 7})
	c.Enqueue(Request{ID: 2, Bank: 0, Row: 7, Write: true})
	for i := 0; i < 200; i++ {
		if d := c.Tick(); len(d) > 0 {
			if len(d) != 2 || d[0].Req.ID != 1 || d[1].Req.ID != 2 {
				t.Fatalf("completions = %+v, want request 1 then 2 on one cycle", d)
			}
			return
		}
	}
	t.Fatal("nothing completed")
}

// TestAcceptsCountsLikeEnqueue: asking first refuses, and counts the
// refusal, exactly as the failed Enqueue does.
func TestAcceptsCountsLikeEnqueue(t *testing.T) {
	cfg := config.Baseline().Normalize()
	cfg.MCQueueDepth = 2
	a, b := NewController(0, cfg), NewController(0, cfg)
	for i := 0; i < 5; i++ {
		req := Request{ID: uint64(i), Bank: i % 4, Row: 1}
		ok := a.Enqueue(req)
		if b.Accepts() != ok {
			t.Fatalf("request %d: Accepts disagrees with Enqueue (%v)", i, ok)
		}
		if ok {
			b.Enqueue(req)
		}
	}
	if a.Stats() != b.Stats() || a.Stats().StallsFull != 3 {
		t.Fatalf("stats: enqueue-only %+v, ask-first %+v (want 3 refusals each)", a.Stats(), b.Stats())
	}
}
