package dram

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/wire"
)

// refController is the controller as it was before the per-bank rewrite: one
// arrival-ordered queue, scanned in full three times a cycle (completions,
// ready row hits, oldest request per bank). It is kept as the definition the
// event-bounded Controller must reproduce completion for completion, counter
// for counter and snapshot for snapshot. The only change is that the "an
// older request owns this bank" marks cover every bank, not the first 64.
type refController struct {
	timing       config.GDDRTiming
	banks        []refBank
	queue        []refQueued
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
	banks := make([]refBank, cfg.BanksPerMC)
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
	c.queue = append(c.queue, refQueued{Req: req})
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

func (c *refController) issueColumn(q *refQueued, b *refBank) {
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

// refBank is one bank's timing state machine.
type refBank struct {
	OpenRow    int64
	ReadyAt    uint64
	ActAllowed uint64
	PreAllowed uint64
}

// refQueued is one queued (possibly issued) request.
type refQueued struct {
	Req       Request
	Issued    bool
	Conflict  bool
	Activated bool
	DoneAt    uint64
}

// appendState writes the reference in the v7 layout Controller.AppendState
// writes, laid out here by hand: the counted banks, the counted queue, the
// scalars and the statistics.
func (c *refController) appendState(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(c.banks)))
	for _, k := range c.banks {
		b = wire.AppendUvarint(b, uint64(k.OpenRow+1))
		b = wire.AppendUvarint(b, k.ReadyAt)
		b = wire.AppendUvarint(b, k.ActAllowed)
		b = wire.AppendUvarint(b, k.PreAllowed)
	}
	b = wire.AppendUvarint(b, uint64(len(c.queue)))
	for _, q := range c.queue {
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
	b = wire.AppendUvarint(b, c.busFreeAt)
	b = wire.AppendUvarint(b, c.lastActCycle)
	b = wire.AppendUvarint(b, c.cycle)
	s := &c.stats
	for _, v := range []uint64{s.Requests, s.Reads, s.Writes, s.RowHits, s.RowMisses,
		s.RowConflicts, s.BytesMoved, s.BusyCycles, s.TotalQueueing, s.Completed, s.StallsFull} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

// restoreState reads the v7 layout back into the reference.
func (c *refController) restoreState(tb testing.TB, b []byte) {
	tb.Helper()
	r := wire.NewReader(b)
	c.banks = make([]refBank, r.Uvarint())
	for i := range c.banks {
		c.banks[i] = refBank{OpenRow: int64(r.Uvarint()) - 1, ReadyAt: r.Uvarint(), ActAllowed: r.Uvarint(), PreAllowed: r.Uvarint()}
	}
	c.queue = make([]refQueued, r.Uvarint())
	for i := range c.queue {
		c.queue[i] = refQueued{Req: Request{ID: r.Uvarint(), Bank: r.Int(), Row: r.Uvarint(), Write: r.Bool(), Arrival: r.Uvarint(),
			Meta: Meta{Slice: r.Int(), Addr: r.Uvarint(), Fill: r.Bool()}}, Issued: r.Bool(), Conflict: r.Bool(), Activated: r.Bool(), DoneAt: r.Uvarint()}
	}
	c.busFreeAt, c.lastActCycle, c.cycle = r.Uvarint(), r.Uvarint(), r.Uvarint()
	s := &c.stats
	for _, p := range []*uint64{&s.Requests, &s.Reads, &s.Writes, &s.RowHits, &s.RowMisses,
		&s.RowConflicts, &s.BytesMoved, &s.BusyCycles, &s.TotalQueueing, &s.Completed, &s.StallsFull} {
		*p = r.Uvarint()
	}
	if err := r.Done(); err != nil {
		tb.Fatal(err)
	}
}

// trafficShape parameterises the randomized request stream of the
// differential drive.
type trafficShape struct {
	name      string
	banks     int                      // BanksPerMC
	rows      int                      // distinct rows per bank: 1-2 is row-hit heavy, many is conflict heavy
	writes    float64                  // share of stores
	perCycle  int                      // enqueue attempts per cycle (more than the controller drains = saturated)
	idleEvery int                      // every idleEvery cycles the stream pauses for idleEvery/4 cycles (0 = never)
	timing    func(*config.GDDRTiming) // nil: the baseline's, with TCL 12 and TWR 10
	busBound  bool                     // asserted: the queue full and the bus busy on 90 % of cycles
}

// slowTiming puts every per-bank threshold (tRCD, tRAS, tRC, tRP) and tRRD
// beyond the ready calendar's horizon, so banks are filed past it.
func slowTiming(t *config.GDDRTiming) {
	t.TRCD, t.TRP, t.TRAS, t.TRC, t.TRRD = 70, 90, 140, 200, 66
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
		// LUD on the shared LLC: the queue held full, every bank busy, the
		// data bus the bottleneck.
		{name: "lud-full-bus-bound", banks: 16, rows: 2, writes: 1.0 / 6, perCycle: 16, busBound: true},
		{name: "beyond-the-horizon", banks: 16, rows: 8, writes: 0.3, perCycle: 2, timing: slowTiming},
		{name: "beyond-the-horizon-bursty", banks: 4, rows: 64, writes: 0.2, perCycle: 1, idleEvery: 2000, timing: slowTiming},
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
			if sh.timing != nil {
				sh.timing(&cfg.Timing)
			}
			got, ref := NewController(0, cfg), newRefController(cfg)
			used := NewController(0, cfg) // restore target with history of its own
			rng := rand.New(rand.NewSource(int64(len(sh.name)) * 7919))
			var id uint64
			sameCycle, full, far := 0, 0, 0
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
				if got.count == got.queueCap {
					full++
				}
				used.Tick()
				d, rd := got.Tick(), ref.Tick()
				if len(d) != len(rd) || (len(d) > 0 && !reflect.DeepEqual(d, rd)) {
					t.Fatalf("cycle %d: completions\n got %+v\nwant %+v", cyc, d, rd)
				}
				if len(d) > 1 {
					sameCycle++
				}
				if got.farMin != never {
					far++
				}
				if got.count != len(ref.queue) {
					t.Fatalf("cycle %d: %d requests queued or in flight, reference %d", cyc, got.count, len(ref.queue))
				}
				if cyc%997 == 0 || cyc == cycles/2 {
					if a, b := snapshot(got), ref.appendState(nil); !bytes.Equal(a, b) {
						t.Fatalf("cycle %d: snapshot\n got %x\nwant %x", cyc, a, b)
					}
				}
				if cyc == cycles/2 {
					// Continue on the used instance, restored from the
					// snapshot, and put the reference through the same.
					st := snapshot(got)
					r := wire.NewReader(st)
					if used.RestoreState(r); r.Done() != nil {
						t.Fatal(r.Err())
					}
					got, used = used, got
					ref.restoreState(t, st)
				}
			}
			if got.Stats() != ref.stats {
				t.Fatalf("stats\n got %+v\nwant %+v", got.Stats(), ref.stats)
			}
			if got.Stats().Completed == 0 {
				t.Fatal("the drive completed nothing")
			}
			// The share of cycles the data bus carried a burst.
			busy := float64(got.Stats().Completed*uint64(got.burstCycles)) / float64(cycles)
			queueFull := float64(full) / float64(cycles)
			t.Logf("%d completed, %d refused, row-hit rate %.2f, %d cycles with several completions, bus busy %.2f, queue full %.2f, %d cycles with a bank filed beyond the horizon",
				got.Stats().Completed, got.Stats().StallsFull, got.Stats().RowHitRate(), sameCycle, busy, queueFull, far)
			if sh.timing != nil && far == 0 {
				t.Error("no bank was filed beyond the calendar's horizon")
			}
			if sh.busBound && (busy < 0.9 || queueFull < 0.9) {
				t.Errorf("not LUD's operating point: bus busy %.2f, queue full %.2f of the cycles", busy, queueFull)
			}
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
