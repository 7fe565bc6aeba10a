package sm

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/workload"
)

// scriptProgram is a deterministic Program for tests: it returns ops from a
// per-(sm,warp) script and ALU ops once the script is exhausted.
type scriptProgram struct {
	ops    map[[2]int][]workload.Op
	kernel int
}

func (p *scriptProgram) NextOp(sm, warp int) workload.Op {
	key := [2]int{sm, warp}
	if list := p.ops[key]; len(list) > 0 {
		op := list[0]
		p.ops[key] = list[1:]
		return op
	}
	return workload.Op{ALULatency: 1}
}

func (p *scriptProgram) NextKernel() { p.kernel++ }

// aluProgram always returns ALU ops with a given latency.
type aluProgram struct{ lat int }

func (p *aluProgram) NextOp(sm, warp int) workload.Op { return workload.Op{ALULatency: p.lat} }
func (p *aluProgram) NextKernel()                     {}

// loadProgram issues a load with a unique address per call.
type loadProgram struct{ next uint64 }

func (p *loadProgram) NextOp(sm, warp int) workload.Op {
	p.next += 128
	return workload.Op{IsMem: true, Addr: p.next}
}
func (p *loadProgram) NextKernel() {}

func testCfg() config.Config { return config.Baseline().Normalize() }

// ipc is instructions per cycle over st.
func ipc(st Stats) float64 { return float64(st.Instructions) / float64(st.Cycles) }

// snapshot is s's state in a fresh State.
func snapshot(s *SM) State {
	var st State
	s.SaveStateInto(&st)
	return st
}

func TestALUOnlyIPC(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	prog := &aluProgram{lat: 1}
	for cyc := uint64(1); cyc <= 1000; cyc++ {
		s.Tick(cyc, prog)
	}
	st := s.Stats()
	// With ALU latency 1 and plenty of warps, both schedulers issue every
	// cycle: IPC == SchedulersPerSM.
	if got := ipc(st); got < 1.9 || got > 2.01 {
		t.Errorf("ALU-only IPC = %.2f, want ~2", got)
	}
	if st.MemInstructions != 0 {
		t.Error("no memory instructions expected")
	}
}

func TestALULatencyHiding(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	// Latency 4 with 64 warps and 2 schedulers: still enough warps to issue
	// every cycle.
	prog := &aluProgram{lat: 4}
	for cyc := uint64(1); cyc <= 1000; cyc++ {
		s.Tick(cyc, prog)
	}
	if got := ipc(s.Stats()); got < 1.9 {
		t.Errorf("IPC = %.2f; 64 warps should hide a 4-cycle ALU latency", got)
	}
}

func TestL1HitAndMiss(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	// Warp 0: two loads to the same line; the second must not reach the
	// memory system once the first reply has filled the L1.
	prog := &scriptProgram{ops: map[[2]int][]workload.Op{
		{0, 0}: {
			{IsMem: true, Addr: 0x1000},
			{IsMem: true, Addr: 0x1040}, // same 128-B line
		},
	}}
	// Cycle 1: warp 0 issues the first load -> miss -> request.
	s.Tick(1, prog)
	req, ok := s.PopRequest()
	if !ok || req.Write || req.Addr != 0x1000 {
		t.Fatalf("expected a read request for 0x1000, got %+v ok=%v", req, ok)
	}
	if s.OutstandingLoads() != 1 {
		t.Fatalf("outstanding = %d, want 1", s.OutstandingLoads())
	}
	// Deliver the reply at cycle 10; warp wakes at 11.
	s.CompleteLoad(mem.Reply{ReqID: req.ID, Addr: req.Addr, SM: 0, Warp: 0, IssuedAt: 1}, 10)
	if s.OutstandingLoads() != 0 {
		t.Fatal("MSHR should be released")
	}
	// Run a few more cycles: the second load should hit in L1 and never
	// produce a request.
	for cyc := uint64(11); cyc <= 60; cyc++ {
		s.Tick(cyc, prog)
	}
	if _, ok := s.PopRequest(); ok {
		t.Fatal("second load to the same line must hit in L1")
	}
	st := s.Stats()
	if st.L1Hits != 1 || st.L1Misses != 1 {
		t.Errorf("L1 hits/misses = %d/%d, want 1/1", st.L1Hits, st.L1Misses)
	}
	if st.LoadsCompleted != 1 || st.AvgLoadLatency() != 9 {
		t.Errorf("loads completed = %d avg latency = %.1f, want 1 / 9", st.LoadsCompleted, st.AvgLoadLatency())
	}
}

func TestMSHRMergingAcrossWarps(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	// Warps 0 and 2 (same scheduler partition: even slots) load the same line.
	prog := &scriptProgram{ops: map[[2]int][]workload.Op{
		{0, 0}: {{IsMem: true, Addr: 0x2000}},
		{0, 2}: {{IsMem: true, Addr: 0x2000}},
		{0, 1}: {{IsMem: true, Addr: 0x2000}},
	}}
	for cyc := uint64(1); cyc <= 3; cyc++ {
		s.Tick(cyc, prog)
	}
	// Only one request must leave the SM.
	if _, ok := s.PopRequest(); !ok {
		t.Fatal("expected one request")
	}
	if _, ok := s.PopRequest(); ok {
		t.Fatal("merged loads must not generate extra requests")
	}
	if s.Stats().L1Misses != 3 {
		t.Errorf("L1 misses = %d, want 3 (one primary, two merged)", s.Stats().L1Misses)
	}
	// One reply wakes all three warps.
	s.CompleteLoad(mem.Reply{Addr: 0x2000, IssuedAt: 1}, 20)
	if s.Stats().LoadsCompleted != 3 {
		t.Errorf("loads completed = %d, want 3", s.Stats().LoadsCompleted)
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	prog := &scriptProgram{ops: map[[2]int][]workload.Op{
		{0, 0}: {
			{IsMem: true, Write: true, Addr: 0x3000},
			{ALULatency: 1},
		},
	}}
	s.Tick(1, prog)
	req, ok := s.PopRequest()
	if !ok || !req.Write {
		t.Fatalf("expected a write request, got %+v", req)
	}
	// The warp must be ready again on the next cycle without any reply.
	s.Tick(2, prog)
	if s.Stats().Instructions < 2 {
		t.Errorf("instructions = %d; store must not block the warp", s.Stats().Instructions)
	}
}

func TestStructuralStallOnRequestQueue(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	prog := &loadProgram{}
	// Never drain the out queue: after it fills (8 entries) issue stalls.
	for cyc := uint64(1); cyc <= 200; cyc++ {
		s.Tick(cyc, prog)
	}
	st := s.Stats()
	if st.StallStructural == 0 {
		t.Error("expected structural stalls once the request queue fills")
	}
	// A queue-full stall lifts as soon as the queue drains, with no MSHR
	// event in between (it must not be memoised on the MSHR stamp).
	if _, ok := s.PopRequest(); !ok {
		t.Fatal("expected a queued request")
	}
	s.Tick(201, prog)
	if got := s.Stats().L1Misses; got != st.L1Misses+1 {
		t.Errorf("L1 misses = %d after one queue slot freed, want %d", got, st.L1Misses+1)
	}
	count := 0
	for {
		if _, ok := s.PopRequest(); !ok {
			break
		}
		count++
	}
	if count != 8 {
		t.Errorf("drained %d requests, want the queue capacity of 8", count)
	}
}

func TestUnpopRequest(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	prog := &loadProgram{}
	s.Tick(1, prog)
	s.Tick(2, prog)
	r1, ok := s.PopRequest()
	if !ok {
		t.Fatal("expected request")
	}
	s.UnpopRequest(r1)
	r2, ok := s.PopRequest()
	if !ok || r2.ID != r1.ID {
		t.Error("UnpopRequest should restore ordering")
	}
}

// issueCounter is aluProgram that counts the instructions it hands each warp.
type issueCounter struct {
	aluProgram
	perWarp map[int]int
}

func (p *issueCounter) NextOp(sm, warp int) workload.Op {
	p.perWarp[warp]++
	return p.aluProgram.NextOp(sm, warp)
}

func TestGTOPrefersCurrentWarp(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	prog := &issueCounter{aluProgram{lat: 1}, map[int]int{}}
	for cyc := uint64(1); cyc <= 50; cyc++ {
		s.Tick(cyc, prog)
	}
	// With ALU latency 1, the greedy warp (slot 0 for scheduler 0, slot 1
	// for scheduler 1) is always ready again next cycle, so only two warps
	// should have issued anything.
	if issuedWarps := len(prog.perWarp); issuedWarps != len(s.current) {
		t.Errorf("%d warps issued, want %d (greedy scheduling)", issuedWarps, len(s.current))
	}
}

func TestCompleteLoadUnknownLinePanics(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for reply that wakes no warp")
		}
	}()
	s.CompleteLoad(mem.Reply{Addr: 0x9000}, 5)
}

// TestRestoreRejectsBadMergeLists: a snapshot whose L1 MSHR merge lists
// disagree with its asleep warps is refused by RestoreState, rather than
// left to panic (or wake the wrong warps) at a later reply.
func TestRestoreRejectsBadMergeLists(t *testing.T) {
	cfg := testCfg()
	src := New(0, 0, cfg)
	// Warps 0 and 2 (scheduler 0) and 1 (scheduler 1) go to sleep: 0 and 1 on
	// line 0x1000, 2 on line 0x2000. Every other warp stays awake.
	prog := &scriptProgram{ops: map[[2]int][]workload.Op{
		{0, 0}: {{IsMem: true, Addr: 0x1000}},
		{0, 1}: {{IsMem: true, Addr: 0x1000}},
		{0, 2}: {{IsMem: true, Addr: 0x2000}},
	}}
	src.Tick(1, prog)
	src.Tick(2, prog)
	entry := func(st *State, line uint64) int {
		i := slices.Index(st.MSHRs.Lines, line)
		if i < 0 {
			t.Fatalf("line %#x is not outstanding: %+v", line, st.MSHRs)
		}
		return i
	}
	good := snapshot(src)
	if l := good.MSHRs.Payloads[entry(&good, 0x1000)]; len(l) != 2 || good.Wake[2] != asleep {
		t.Fatalf("set-up: merge list %v, wake %v", l, good.Wake[:4])
	}
	if err := New(0, 0, cfg).RestoreState(good); err != nil {
		t.Fatalf("the uncorrupted snapshot: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(st *State)
		want    string
	}{
		{"payload-beyond-the-warps", func(st *State) {
			i := entry(st, 0x2000)
			st.MSHRs.Payloads[i] = append(st.MSHRs.Payloads[i], uint64(cfg.MaxWarpsPerSM))
		}, "lists warp"},
		{"listed-warp-awake", func(st *State) {
			i := entry(st, 0x2000)
			st.MSHRs.Payloads[i] = append(st.MSHRs.Payloads[i], 5)
		}, "not asleep"},
		{"asleep-warp-in-no-list", func(st *State) {
			i := entry(st, 0x1000)
			st.MSHRs.Payloads[i] = st.MSHRs.Payloads[i][:1]
		}, "in no MSHR entry"},
		{"asleep-warp-in-two-lists", func(st *State) {
			i := entry(st, 0x2000)
			st.MSHRs.Payloads[i] = append(st.MSHRs.Payloads[i], st.MSHRs.Payloads[entry(st, 0x1000)][0])
		}, "twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := snapshot(src)
			tc.corrupt(&st)
			err := New(0, 0, cfg).RestoreState(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestRequestMetadata(t *testing.T) {
	cfg := testCfg()
	s := New(13, 1, cfg)
	s.SetApp(2)
	prog := &loadProgram{}
	s.Tick(1, prog)
	r, ok := s.PopRequest()
	if !ok {
		t.Fatal("expected request")
	}
	if r.SM != 13 || r.Cluster != 1 || r.AppID != 2 {
		t.Errorf("request metadata = SM %d cluster %d app %d, want 13/1/2", r.SM, r.Cluster, r.AppID)
	}
	if r.IssuedAt != 1 {
		t.Errorf("IssuedAt = %d, want 1", r.IssuedAt)
	}
}

func TestStatsAddAndRates(t *testing.T) {
	a := Stats{Cycles: 100, Instructions: 150, L1Hits: 30, L1Misses: 10, TotalLoadLatency: 500, LoadsCompleted: 10}
	b := Stats{Cycles: 100, Instructions: 50}
	a.Add(b)
	if a.Cycles != 200 || a.Instructions != 200 {
		t.Errorf("Add = %+v", a)
	}
	if a.L1MissRate() != 0.25 {
		t.Errorf("L1MissRate = %v", a.L1MissRate())
	}
	if a.AvgLoadLatency() != 50 {
		t.Errorf("AvgLoadLatency = %v", a.AvgLoadLatency())
	}
	var zero Stats
	if zero.L1MissRate() != 0 || zero.AvgLoadLatency() != 0 {
		t.Error("zero stats should report zero rates")
	}
}

func TestIntegrationWithWorkloadGenerator(t *testing.T) {
	cfg := testCfg()
	spec, _ := workload.ByAbbr("VA")
	gen := workload.MustNewGenerator(spec, cfg, 1)
	s := New(0, 0, cfg)
	for cyc := uint64(1); cyc <= 2000; cyc++ {
		s.Tick(cyc, gen)
		// Drain requests and immediately answer reads to keep warps moving.
		for {
			r, ok := s.PopRequest()
			if !ok {
				break
			}
			if !r.Write {
				s.CompleteLoad(mem.Reply{ReqID: r.ID, Addr: r.Addr, SM: r.SM, Warp: r.Warp, IssuedAt: r.IssuedAt}, cyc+1)
			}
		}
	}
	st := s.Stats()
	if st.Instructions == 0 || st.MemInstructions == 0 {
		t.Fatalf("SM made no progress: %+v", st)
	}
	if ipc(st) < 0.5 {
		t.Errorf("IPC = %.2f with an ideal memory system; expected near issue limit", ipc(st))
	}
}

// refPick is the issue stage's original O(warps) greedy-then-oldest scan,
// kept as the reference the ready-mask pick must equal.
func refPick(s *SM, sched int) int {
	ready := func(w int) bool { return s.wake[w] != asleep && s.cycle >= s.wake[w] }
	if cur := s.current[sched]; cur >= 0 && ready(cur) {
		return cur
	}
	for w := sched; w < len(s.warps); w += len(s.current) {
		if ready(w) {
			return w
		}
	}
	return -1
}

// mixProgram draws a seeded mix of ALU ops (latency 1-6, or one of lats when
// set), loads over a footprint somewhat larger than the L1, and stores.
type mixProgram struct {
	rng  *rand.Rand
	lats []int
}

func (p *mixProgram) NextOp(sm, warp int) workload.Op {
	switch r := p.rng.Intn(10); {
	case r < 7:
		if p.lats != nil {
			return workload.Op{ALULatency: p.lats[p.rng.Intn(len(p.lats))]}
		}
		return workload.Op{ALULatency: 1 + p.rng.Intn(6)}
	case r < 9:
		return workload.Op{IsMem: true, Addr: uint64(p.rng.Intn(600)) * 128}
	default:
		return workload.Op{IsMem: true, Write: true, Addr: uint64(p.rng.Intn(64)) * 128}
	}
}
func (p *mixProgram) NextKernel() {}

// delayedMemory drains an SM's request queue (at most one request a tick,
// and none on some ticks, so the queue backs up) and answers each load after
// a random delay, at the cycle it falls due — inside the gap when the next
// tick is further away than that.
type delayedMemory struct {
	rng      *rand.Rand
	inflight []mem.Reply
	due      []uint64
	complete func(mem.Reply, uint64) // nil: the SM's CompleteLoad
}

func (m *delayedMemory) take(s *SM, cyc uint64) {
	if m.rng.Intn(4) == 0 {
		return
	}
	if r, ok := s.PopRequest(); ok {
		if !r.Write {
			m.inflight = append(m.inflight, mem.Reply{ReqID: r.ID, Addr: r.Addr, SM: r.SM, Warp: r.Warp, IssuedAt: r.IssuedAt})
			m.due = append(m.due, cyc+20+uint64(m.rng.Intn(400)))
		}
		s.pool.Put(r)
	}
}

func (m *delayedMemory) deliver(s *SM, upTo uint64) {
	for i := 0; i < len(m.due); {
		if m.due[i] > upTo {
			i++
			continue
		}
		if m.complete != nil {
			m.complete(m.inflight[i], m.due[i])
		} else {
			s.CompleteLoad(m.inflight[i], m.due[i])
		}
		last := len(m.due) - 1
		m.inflight[i], m.due[i] = m.inflight[last], m.due[last]
		m.inflight, m.due = m.inflight[:last], m.due[:last]
	}
}

// pickDrive is one differential run of the issue stage: `ticks` ticks of a
// seeded mixProgram over ALU latencies lats against a delayedMemory, tick i
// gap(i) cycles after the one before.
type pickDrive struct {
	cfg       config.Config
	ticks     int
	lats      []int
	gap       func(i int) uint64 // nil: every cycle is ticked
	restoreAt int                // tick before which fast moves onto a used SM (0: never)
}

// refTick is Tick with loads issued by refIssueLoad, which notes in blocked
// the line each warp it puts to sleep waits for.
func refTick(s *SM, blocked []uint64, cycle uint64, prog workload.Program) {
	s.advance(cycle)
	s.stats.Cycles++
	s.noReady, s.parked = 0, 0
	for sched := range s.current {
		w := s.pickWarp(sched)
		if w < 0 {
			s.stats.StallNoReadyWarp++
			s.noReady++
			continue
		}
		s.current[sched] = w
		op := s.warps[w].pending
		if !s.warps[w].hasPending {
			op = prog.NextOp(s.id, w)
		}
		if op.IsMem && !op.Write {
			refIssueLoad(s, blocked, w, op)
		} else {
			s.execOp(w, op)
		}
	}
	s.frozen = s.noReady+s.parked == uint64(len(s.current))
}

// refIssueLoad is issueLoad as it was before the in-flight bits: the MSHR
// probe first, on every load, hit or miss. It keeps the blocked-line column
// refCompleteLoad scans: a warp put to sleep on lineAddr gets
// blocked[w] = lineAddr.
func refIssueLoad(s *SM, blocked []uint64, w int, op workload.Op) {
	if s.warps[w].mshrFull == s.mshrs.Stamp()+1 {
		s.stats.StallStructural++
		s.parked++
		return
	}
	lineAddr := s.l1.LineAddr(op.Addr)
	probe := s.mshrs.Probe(lineAddr)
	if probe.Outstanding() {
		if !probe.CanAccept() {
			s.stall(w, op)
			return
		}
		s.mshrs.Commit(probe, uint64(w))
		s.sleepOnLoad(w)
		blocked[w] = lineAddr
		s.retire(w)
		s.stats.MemInstructions++
		s.stats.Loads++
		s.stats.L1Misses++
		return
	}
	found := s.l1.Find(op.Addr)
	if !found.Hit() && (!probe.CanAccept() || s.outQ.Len() >= s.outQCap) {
		if !probe.CanAccept() {
			s.warps[w].mshrFull = s.mshrs.Stamp() + 1
		}
		s.stall(w, op)
		return
	}
	s.l1.AccessAt(found, cache.Read, -1)
	s.retire(w)
	s.stats.MemInstructions++
	s.stats.Loads++
	if found.Hit() {
		s.stats.L1Hits++
		s.sleepUntil(w, s.cycle+uint64(s.cfg.L1HitLatency))
		return
	}
	s.stats.L1Misses++
	s.mshrs.Commit(probe, uint64(w))
	s.outQ.PushBack(s.newRequest(lineAddr, false, w))
	s.sleepOnLoad(w)
	blocked[w] = lineAddr
}

// refCompleteLoad is CompleteLoad as it was before the MSHR merge lists
// named the warps: the reply's entry is completed for its bookkeeping only,
// and the warps to wake are found by comparing every asleep warp's line in
// blocked with the reply's.
func refCompleteLoad(s *SM, blocked []uint64, r mem.Reply, cycle uint64) {
	line := s.l1.LineAddr(r.Addr)
	s.mshrs.Complete(line)
	s.stats.RepliesReceived++
	woke := uint64(0)
	for w, at := range s.wake {
		if at == asleep && blocked[w] == line {
			s.wake[w] = cycle + 1
			s.file(w, cycle+1)
			woke++
		}
	}
	if woke == 0 {
		panic(fmt.Sprintf("sm %d: reply for line %#x woke no warp", s.id, line))
	}
	s.stats.LoadsCompleted += woke
	if cycle > r.IssuedAt {
		s.stats.TotalLoadLatency += woke * (cycle - r.IssuedAt)
	}
}

// settledLines counts the lines resident in s's L1 whose in-flight bit is
// clear: loads of those skip the MSHR probe.
func settledLines(s *SM) int {
	n := 0
	var tags cache.State
	s.l1.SaveStateInto(&tags)
	for k, valid := range tags.Valid {
		n += bits.OnesCount64(valid &^ s.inflight[k])
	}
	return n
}

// run drives two SMs through the same ticks. On `fast`, every scheduler's
// pickWarp must equal the reference scan at every tick. `plain` has its
// stall memos wiped and its ready set, calendar and far bound rebuilt from the
// wake times before every tick, so it never relies on what earlier cycles
// filed, issues its loads through refIssueLoad, so it never relies on the
// in-flight bits, and takes its replies through refCompleteLoad, so it never
// relies on the MSHR merge lists to name the warps a reply wakes; the two
// must stay in identical state, derived sets and statistics included. It returns fast's statistics, how many warp-ticks sat
// on a memoised stall and how many ticks ended with a settled L1 line.
func (d pickDrive) run(t *testing.T) (Stats, uint64, int) {
	t.Helper()
	cfg := d.cfg
	fast, plain := New(3, 0, cfg), New(3, 0, cfg)
	progFast, progPlain := &mixProgram{rand.New(rand.NewSource(9)), d.lats}, &mixProgram{rand.New(rand.NewSource(9)), d.lats}
	memFast, memPlain := &delayedMemory{rng: rand.New(rand.NewSource(4))}, &delayedMemory{rng: rand.New(rand.NewSource(4))}
	blocked := make([]uint64, cfg.MaxWarpsPerSM)
	memPlain.complete = func(r mem.Reply, cycle uint64) { refCompleteLoad(plain, blocked, r, cycle) }
	digest := func(s *SM) []byte { st := snapshot(s); return st.AppendTo(nil) }

	parked, cyc, settled := uint64(0), uint64(0), 0
	for i := 1; i <= d.ticks; i++ {
		if i == d.restoreAt {
			// Restore onto a used SM whose warps all wake far beyond the
			// horizon: none of its ready set, calendar and far bound may
			// survive.
			restored := New(3, 0, cfg)
			oneLine := &scriptProgram{ops: map[[2]int][]workload.Op{}}
			for w := 0; w < cfg.MaxWarpsPerSM; w++ {
				oneLine.ops[[2]int{3, w}] = []workload.Op{{IsMem: true, Addr: 0x5000}, {ALULatency: 1 << 20}}
			}
			for c := uint64(1); c <= 20; c++ {
				restored.Tick(c, oneLine)
			}
			restored.CompleteLoad(mem.Reply{Addr: 0x5000, IssuedAt: 1}, 21)
			restored.Tick(22, oneLine) // every warp now parked for 1<<20 cycles
			before := digest(fast)
			if err := restored.RestoreState(snapshot(fast)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, digest(restored)) {
				t.Fatalf("tick %d: wire form differs across a restore", i)
			}
			fast = restored
		}
		if d.gap != nil {
			cyc += d.gap(i)
		} else {
			cyc++
		}
		memFast.deliver(fast, cyc-1)
		memPlain.deliver(plain, cyc-1)

		fast.advance(cyc)
		for sched := range fast.current {
			if want, got := refPick(fast, sched), fast.pickWarp(sched); want != got {
				t.Fatalf("tick %d cycle %d scheduler %d: pickWarp = %d, reference scan %d", i, cyc, sched, got, want)
			}
		}
		for w := range plain.warps {
			plain.warps[w].mshrFull = 0
		}
		plain.cycle = cyc
		plain.rebuild()

		fast.Tick(cyc, progFast)
		refTick(plain, blocked, cyc, progPlain)
		memFast.take(fast, cyc)
		memPlain.take(plain, cyc)
		memFast.deliver(fast, cyc)
		memPlain.deliver(plain, cyc)
		for w := range fast.warps {
			if fast.warps[w].hasPending && fast.warps[w].mshrFull == fast.mshrs.Stamp()+1 {
				parked++
			}
		}
		if settledLines(fast) > 0 {
			settled++
		}
		if !slices.Equal(fast.ready, plain.ready) || !slices.Equal(fast.cal, plain.cal) || fast.calBusy != plain.calBusy || fast.farMin != plain.farMin {
			t.Fatalf("tick %d cycle %d: incrementally filed sets differ from rebuilt ones", i, cyc)
		}
		if i%1000 == 0 && !reflect.DeepEqual(snapshot(fast), snapshot(plain)) {
			t.Fatalf("tick %d: memoised SM diverged from the full-path SM", i)
		}
	}
	if !bytes.Equal(digest(fast), digest(plain)) || fast.Stats() != plain.Stats() {
		t.Fatalf("final wire forms or statistics differ:\n%+v\n%+v", fast.Stats(), plain.Stats())
	}
	return fast.Stats(), parked, settled
}

// TestPickWarpMatchesReferenceScan is the 20k-cycle drive, with a mid-run
// SaveState/RestoreState of `fast` onto a used SM.
func TestPickWarpMatchesReferenceScan(t *testing.T) {
	cfg := testCfg()
	// Few warps, fewer MSHRs: schedulers run out of ready warps, and loads
	// park on a full table, both often.
	cfg.MaxWarpsPerSM, cfg.L1MSHRs = 12, 6
	st, parked, settled := pickDrive{cfg: cfg, ticks: 20_000, restoreAt: 9_000}.run(t)
	if parked == 0 || settled == 0 || st.StallNoReadyWarp == 0 || st.L1Hits == 0 || st.Stores == 0 {
		t.Errorf("drive did not reach every path: %d memoised stall cycles, %d ticks with a settled L1 line, stats %+v", parked, settled, st)
	}
}

// TestPickWarpAcrossTheCalendarHorizon repeats the drive where the calendar
// has edges: wake latencies at and beyond its 63-cycle horizon (1<<20 being
// a drained warp's park latency), an L1 hit latency beyond it,
// and tick gaps a reconfiguration stall leaves — short of, at and past the
// 64 slots — with replies arriving inside the gap.
func TestPickWarpAcrossTheCalendarHorizon(t *testing.T) {
	cfg := testCfg()
	cfg.MaxWarpsPerSM, cfg.L1MSHRs = 12, 6
	sometimes := func(g uint64) func(int) uint64 {
		rng := rand.New(rand.NewSource(int64(g)))
		return func(int) uint64 {
			if rng.Intn(8) == 0 {
				return g
			}
			return 1
		}
	}
	for _, lat := range []int{63, 64, 65, 1 << 20} {
		t.Run(fmt.Sprintf("latency-%d", lat), func(t *testing.T) {
			d := pickDrive{cfg: cfg, ticks: 6_000, lats: []int{1, 3, lat}, restoreAt: 2_500}
			if lat == 1<<20 {
				d.gap = sometimes(10_000) // or no warp would ever come back
			}
			if st, _, _ := d.run(t); st.StallNoReadyWarp == 0 || st.Instructions < 300 {
				t.Errorf("drive did not exercise the pick: %+v", st)
			}
		})
	}
	t.Run("l1-hit-latency-100", func(t *testing.T) {
		far := cfg
		far.L1HitLatency = 100
		if st, _, _ := (pickDrive{cfg: far, ticks: 6_000}).run(t); st.L1Hits == 0 {
			t.Errorf("no L1 hit: %+v", st)
		}
	})
	for _, g := range []uint64{1, 63, 64, 65, 10_000} {
		t.Run(fmt.Sprintf("gap-%d", g), func(t *testing.T) {
			d := pickDrive{cfg: cfg, ticks: 6_000, lats: []int{1, 2, 6, 40, 70}, gap: sometimes(g), restoreAt: 2_500}
			if st, _, _ := d.run(t); st.LoadsCompleted == 0 || st.StallNoReadyWarp == 0 {
				t.Errorf("drive did not exercise the pick: %+v", st)
			}
		})
	}
}

// TestPickWarpGeometries repeats the drive over warp counts below, at and
// above one mask word and over scheduler counts that do and do not divide it.
func TestPickWarpGeometries(t *testing.T) {
	for _, warps := range []int{12, 64, 96} {
		for _, scheds := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%d-warps-%d-schedulers", warps, scheds), func(t *testing.T) {
				cfg := testCfg()
				cfg.MaxWarpsPerSM, cfg.SchedulersPerSM, cfg.L1MSHRs = warps, scheds, warps/2
				d := pickDrive{cfg: cfg, ticks: 4_000, lats: []int{1, 4, 30, 64, 200}, restoreAt: 1_500}
				if st, _, _ := d.run(t); st.Instructions < 300 || st.LoadsCompleted == 0 {
					t.Errorf("drive did not exercise the pick: %+v", st)
				}
			})
		}
	}
}

// TestSkipToMatchesTicking drives two SMs through the same program and
// memory: one is ticked every cycle, the other only while it is not frozen,
// once its NextWake has come and after a reply, with SkipTo standing in for
// the ticks in between. Wake latencies reach past the calendar (farMin).
// Settled every 1,000 cycles, the two must be in identical state, and their
// final wire forms equal.
func TestSkipToMatchesTicking(t *testing.T) {
	cfg := testCfg()
	cfg.MaxWarpsPerSM, cfg.L1MSHRs = 12, 6
	every, skip := New(3, 0, cfg), New(3, 0, cfg)
	lats := []int{1, 3, 40, 70, 200}
	progEvery, progSkip := &mixProgram{rand.New(rand.NewSource(9)), lats}, &mixProgram{rand.New(rand.NewSource(9)), lats}
	memEvery, memSkip := &delayedMemory{rng: rand.New(rand.NewSource(4))}, &delayedMemory{rng: rand.New(rand.NewSource(4))}

	wakeAt, replied, skipped, far := uint64(0), false, 0, 0
	for cyc := uint64(1); cyc <= 20_000; cyc++ {
		every.Tick(cyc, progEvery)
		if !skip.Frozen() || cyc >= wakeAt || replied {
			skip.SkipTo(cyc - 1)
			skip.Tick(cyc, progSkip)
			if skip.Frozen() != every.Frozen() {
				t.Fatalf("cycle %d: frozen %v, the SM ticked every cycle %v", cyc, skip.Frozen(), every.Frozen())
			}
			wakeAt, replied = skip.NextWake(), false
			if wakeAt != asleep && wakeAt > cyc+horizon {
				far++
			}
		} else {
			skipped++
		}
		memEvery.take(every, cyc)
		memSkip.take(skip, cyc)
		memEvery.deliver(every, cyc)
		before := skip.Stats().RepliesReceived
		memSkip.deliver(skip, cyc)
		replied = replied || skip.Stats().RepliesReceived != before
		if cyc%1000 == 0 {
			skip.SkipTo(cyc)
			if !reflect.DeepEqual(snapshot(every), snapshot(skip)) {
				t.Fatalf("cycle %d: the skipping SM diverged:\nticked:  %+v\nskipped: %+v", cyc, every.Stats(), skip.Stats())
			}
		}
	}
	a, b := snapshot(every), snapshot(skip)
	if !bytes.Equal(a.AppendTo(nil), b.AppendTo(nil)) {
		t.Fatal("final wire forms differ")
	}
	t.Logf("%d of 20000 ticks skipped, %d frozen with a far wake", skipped, far)
	if st := skip.Stats(); skipped < 1000 || far == 0 || st.StallNoReadyWarp == 0 || st.StallStructural == 0 {
		t.Errorf("drive did not exercise the skip: %d ticks skipped, %d frozen with a far wake, stats %+v", skipped, far, st)
	}
}

// parkedLoadSM builds a 4-warp SM with 2 L1 MSHRs and runs two cycles:
// warps 0 and 1 miss on lines A and B (table full), then warp 2 starts an
// 8-cycle ALU op and warp 3's load of line C parks on the full table.
func parkedLoadSM(t *testing.T) (*SM, *scriptProgram) {
	t.Helper()
	cfg := testCfg()
	cfg.MaxWarpsPerSM, cfg.L1MSHRs = 4, 2
	s := New(0, 0, cfg)
	prog := &scriptProgram{ops: map[[2]int][]workload.Op{
		{0, 0}: {{IsMem: true, Addr: 0xA000}},
		{0, 1}: {{IsMem: true, Addr: 0xB000}},
		{0, 2}: {{ALULatency: 8}, {IsMem: true, Addr: 0xC000}},
		{0, 3}: {{IsMem: true, Addr: 0xC000}},
	}}
	s.Tick(1, prog)
	s.Tick(2, prog)
	if st := s.Stats(); s.OutstandingLoads() != 2 || st.StallStructural != 1 || !s.warps[3].hasPending {
		t.Fatalf("setup: outstanding %d, stalls %d, warp 3 parked %v", s.OutstandingLoads(), st.StallStructural, s.warps[3].hasPending)
	}
	return s, prog
}

func TestParkedLoadStallsOncePerCycleAndIssuesWhenAnEntryFrees(t *testing.T) {
	s, prog := parkedLoadSM(t)
	for cyc := uint64(3); cyc <= 6; cyc++ {
		s.Tick(cyc, prog)
		if got, want := s.Stats().StallStructural, cyc-1; got != want {
			t.Fatalf("cycle %d: %d structural stalls, want exactly one per parked cycle (%d)", cyc, got, want)
		}
	}
	misses := s.Stats().L1Misses
	s.CompleteLoad(mem.Reply{Addr: 0xB000, IssuedAt: 1}, 6)
	s.Tick(7, prog)
	st := s.Stats()
	if st.StallStructural != 5 || st.L1Misses != misses+1 || s.warps[3].hasPending || s.OutstandingLoads() != 2 {
		t.Errorf("cycle after the entry freed: stalls %d (want 5), L1 misses %d (want %d), still parked %v, outstanding %d",
			st.StallStructural, st.L1Misses, misses+1, s.warps[3].hasPending, s.OutstandingLoads())
	}
}

func TestParkedLoadMergesWhenItsLineBecomesOutstanding(t *testing.T) {
	s, prog := parkedLoadSM(t)
	for cyc := uint64(3); cyc <= 9; cyc++ {
		s.Tick(cyc, prog)
	}
	// Line A returns; on cycle 10 scheduler 0 issues warp 2's load of C
	// first, re-filling the table, and warp 3 must notice C is now
	// outstanding and merge rather than stay parked on the full table.
	s.CompleteLoad(mem.Reply{Addr: 0xA000, IssuedAt: 1}, 9)
	s.Tick(10, prog)
	st := s.Stats()
	if st.StallStructural != 8 || st.L1Misses != 4 || s.warps[3].hasPending || s.wake[3] != asleep {
		t.Errorf("stalls %d (want 8), L1 misses %d (want 4), warp 3 parked %v asleep %v",
			st.StallStructural, st.L1Misses, s.warps[3].hasPending, s.wake[3] == asleep)
	}
	requests := 0
	for _, ok := s.PopRequest(); ok; _, ok = s.PopRequest() {
		requests++
	}
	if requests != 3 {
		t.Errorf("%d requests left the SM, want 3 (A, B and one for C)", requests)
	}
	s.CompleteLoad(mem.Reply{Addr: 0xC000, IssuedAt: 10}, 30)
	if s.wake[2] != 31 || s.wake[3] != 31 {
		t.Errorf("reply for C woke warps 2/3 at %d/%d, want 31/31", s.wake[2], s.wake[3])
	}
}

// BenchmarkSMTick is the SM rung of the measurement ladder: host ns per
// simulated SM cycle with every scheduler issuing (issue-bound), with nearly
// every warp asleep on a 400-cycle memory while the MSHR table is full
// (memory-bound), and for the GPU's 80 SMs ticked in turn on an MM-shaped
// program against a 300-cycle memory (gpu-sweep) — the one whose working set
// (80 L1 tag stores, warp tables and calendars) does not fit the host's L1d,
// as it does not in the cycle loop.
func BenchmarkSMTick(b *testing.B) {
	cfg := testCfg()
	b.Run("issue-bound", func(b *testing.B) {
		s, prog := New(0, 0, cfg), &aluProgram{lat: 4}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Tick(uint64(i+1), prog)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/SM-cycle")
	})
	b.Run("memory-bound", func(b *testing.B) {
		s, prog := New(0, 0, cfg), &loadProgram{}
		var replies ring.Deque[mem.Reply] // FIFO: the delay is constant
		cyc := uint64(0)
		step := func() {
			cyc++
			s.Tick(cyc, prog)
			if r, ok := s.PopRequest(); ok {
				replies.PushBack(mem.Reply{Addr: r.Addr, IssuedAt: r.IssuedAt})
				s.pool.Put(r)
			}
			for replies.Len() > 0 && replies.At(0).IssuedAt+400 <= cyc {
				s.CompleteLoad(replies.PopFront(), cyc)
			}
		}
		for i := 0; i < 5_000; i++ { // fill the MSHRs, grow the queues
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/SM-cycle")
	})
	b.Run("gpu-sweep", func(b *testing.B) {
		spec, _ := workload.ByAbbr("MM")
		prog := workload.MustNewGenerator(spec, cfg, 1)
		sms := make([]*SM, cfg.NumSMs)
		for i := range sms {
			sms[i] = New(i, i/cfg.SMsPerCluster(), cfg)
			sms[i].UseRequestPool(sms[0].pool)
		}
		var replies ring.Deque[mem.Reply] // FIFO: the delay is constant
		cyc := uint64(0)
		sweep := func() {
			cyc++
			for _, s := range sms {
				s.Tick(cyc, prog)
				for r, ok := s.PopRequest(); ok; r, ok = s.PopRequest() {
					if !r.Write {
						replies.PushBack(mem.Reply{Addr: r.Addr, SM: r.SM, IssuedAt: r.IssuedAt})
					}
					s.pool.Put(r)
				}
			}
			for replies.Len() > 0 && replies.At(0).IssuedAt+300 <= cyc {
				r := replies.PopFront()
				sms[r.SM].CompleteLoad(r, cyc)
			}
		}
		for i := 0; i < 3_000; i++ { // fill the L1s, grow the queues and merge lists
			sweep()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sms)), "ns/SM-cycle")
	})
}
