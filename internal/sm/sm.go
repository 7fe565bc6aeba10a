package sm

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/ring"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Stats aggregates per-SM activity.
type Stats struct {
	Cycles           uint64
	Instructions     uint64
	MemInstructions  uint64
	Loads            uint64
	Stores           uint64
	L1Hits           uint64
	L1Misses         uint64
	StallNoReadyWarp uint64 // scheduler slots with no ready warp
	StallStructural  uint64 // issue attempts blocked on MSHR/queue space
	RepliesReceived  uint64
	TotalLoadLatency uint64 // sum over completed loads of round-trip cycles
	LoadsCompleted   uint64
}

// L1MissRate returns the L1 miss rate over load accesses.
func (s Stats) L1MissRate() float64 {
	total := s.L1Hits + s.L1Misses
	if total == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(total)
}

// AvgLoadLatency returns the mean round-trip latency of completed loads.
func (s Stats) AvgLoadLatency() float64 {
	if s.LoadsCompleted == 0 {
		return 0
	}
	return float64(s.TotalLoadLatency) / float64(s.LoadsCompleted)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.Instructions += other.Instructions
	s.MemInstructions += other.MemInstructions
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.L1Hits += other.L1Hits
	s.L1Misses += other.L1Misses
	s.StallNoReadyWarp += other.StallNoReadyWarp
	s.StallStructural += other.StallStructural
	s.RepliesReceived += other.RepliesReceived
	s.TotalLoadLatency += other.TotalLoadLatency
	s.LoadsCompleted += other.LoadsCompleted
}

type warp struct {
	blockedLine uint64 // line address the warp is waiting for while asleep
	// pending holds an operation that could not issue (structural stall) and
	// must be retried. It is stored by value: a pointer here would force every
	// operation returned by the workload onto the heap.
	pending    workload.Op
	hasPending bool
	// mshrFull memoises a pending load parked on a full L1 MSHR table: the
	// table's Stamp()+1 at the stall (0: no memo). Until the stamp moves the
	// retry can only stall again — the table is as full as it was, and no
	// line enters the L1 without an MSHR insert. Stamps only grow, so a stale
	// memo never matches.
	mshrFull uint64
	issued   uint64
}

// asleep is the wake time of a warp blocked on an outstanding load: no cycle
// reaches it.
const asleep = ^uint64(0)

// horizon is how far ahead of the SM's cycle the wake calendar files a warp:
// its 64 slots hold wake times cycle+1 .. cycle+horizon, one time per slot.
const horizon = 63

// SM is one streaming multiprocessor.
type SM struct {
	id      int
	cluster int
	cfg     config.Config

	// The L1 and its MSHR table are held by value: every access saves the
	// pointer load a separate allocation would put in front of it.
	l1    cache.Cache
	mshrs cache.MSHRTable[uint64] // payload: merged request IDs
	// inflight has a bit per L1 line slot, set when a load miss fills the
	// slot and cleared by the first lookup whose MSHR probe finds the slot's
	// line no longer outstanding. Derived, never serialised: RestoreState
	// sets every bit. A resident line can become outstanding only by missing,
	// and a miss fills and so sets its slot, so a resident line whose bit is
	// clear has no outstanding miss and its load is a plain hit that skips
	// the MSHR probe.
	inflight []uint64
	warps    []warp

	// wake[w] is the cycle from which warp w can issue again (ALU result or
	// L1 hit due), or asleep while it waits for a load. The rest is derived
	// from wake and cycle (rebuild), never serialised, and keeps the issue
	// stage from scanning wake: a warp with wake <= cycle is in ready, one
	// that wakes within the horizon is in the calendar slot of its wake time,
	// and farMin is the earliest wake time beyond it (asleep: none), there to
	// say when to look again. Bitsets are words long; cal is 64 slots of
	// words, slot t&63 holding the warps that wake at t; schedMask is one
	// bitset per scheduler of the warps it owns.
	wake      []uint64
	words     int
	ready     []uint64
	cal       []uint64
	calBusy   uint64 // bit t&63: slot t&63 of cal holds a warp
	farMin    uint64
	schedMask []uint64

	// What the last tick did, when every scheduler came away empty-handed:
	// noReady of them had no ready warp and parked held a warp whose load is
	// parked on the full MSHR table's unchanged stamp. Until a warp wakes
	// (NextWake) or a reply arrives (CompleteLoad), each further tick would
	// repeat it exactly, so the SM is frozen and SkipTo may stand in for the
	// ticks. Derived, never serialised.
	noReady, parked uint64
	frozen          bool

	// current warp per scheduler for GTO scheduling; warps are statically
	// partitioned across schedulers by slot index modulo scheduler count.
	current []int

	outQ    ring.Deque[*mem.Request]
	outQCap int

	// pool recycles retired requests. It is shared with the LLC slices (which
	// release requests once answered) via UseRequestPool, so the steady-state
	// issue path allocates nothing.
	pool *pool.FreeList[mem.Request]

	reqCounter uint64
	cycle      uint64
	stats      Stats
	appID      int
}

// New creates SM `id` belonging to `cluster`.
func New(id, cluster int, cfg config.Config) *SM {
	l1 := cache.New(cache.Config{
		SizeBytes: cfg.L1SizeBytes,
		Ways:      cfg.L1Ways,
		LineBytes: cfg.L1LineBytes,
		Policy:    cache.WriteThrough,
	})
	nSched := cfg.SchedulersPerSM
	if nSched < 1 {
		nSched = 1
	}
	current := make([]int, nSched)
	for i := range current {
		current[i] = -1
	}
	mshrs := cache.NewMSHRTable[uint64](cfg.L1MSHRs, 0)
	mshrs.ExpectMerges(cfg.MaxWarpsPerSM) // one blocked load per warp
	words := wire.BitWords(cfg.MaxWarpsPerSM)
	// One backing array: ready, the scheduler masks, the calendar, the
	// in-flight bits.
	sets := make([]uint64, (1+nSched+64)*words+wire.BitWords(l1.Sets()*cfg.L1Ways))
	s := &SM{
		id:        id,
		cluster:   cluster,
		cfg:       cfg,
		l1:        *l1,
		mshrs:     *mshrs,
		inflight:  sets[(1+nSched+64)*words:],
		warps:     make([]warp, cfg.MaxWarpsPerSM),
		wake:      make([]uint64, cfg.MaxWarpsPerSM),
		words:     words,
		ready:     sets[:words],
		schedMask: sets[words : (1+nSched)*words],
		cal:       sets[(1+nSched)*words : (1+nSched+64)*words],
		current:   current,
		outQCap:   8,
		pool:      &pool.FreeList[mem.Request]{},
	}
	for w := range s.wake {
		s.schedMask[w%nSched*words+w>>6] |= 1 << (w & 63)
	}
	s.rebuild()
	return s
}

// UseRequestPool replaces the SM's request pool. The GPU shares one pool
// between all SMs (which acquire requests) and all LLC slices (which release
// them), closing the recycling loop.
func (s *SM) UseRequestPool(p *pool.FreeList[mem.Request]) {
	if p != nil {
		s.pool = p
	}
}

// Stats returns a snapshot of the SM statistics.
func (s *SM) Stats() Stats { return s.stats }

// ResetStats clears the statistics counters.
func (s *SM) ResetStats() { s.stats = Stats{} }

// SetApp tags requests from this SM with an application identity
// (multi-program mode).
func (s *SM) SetApp(appID int) { s.appID = appID }

// OutstandingLoads returns the number of distinct lines with outstanding
// misses.
func (s *SM) OutstandingLoads() int { return s.mshrs.Occupancy() }

// Tick advances the SM by one cycle, pulling instructions from prog.
func (s *SM) Tick(cycle uint64, prog workload.Program) {
	s.advance(cycle)
	s.stats.Cycles++
	s.noReady, s.parked = 0, 0
	for sched := range s.current {
		s.issueOne(sched, prog)
	}
	s.frozen = s.noReady+s.parked == uint64(len(s.current))
}

// Frozen reports whether the last tick issued nothing and every scheduler
// was either without a ready warp or held by a warp whose load is parked on
// the full L1 MSHR table: the ticks after it repeat it until NextWake or the
// next CompleteLoad. A stall on a full request queue is not memoised (the
// queue drains without the table noticing), so it keeps the SM thawed.
func (s *SM) Frozen() bool { return s.frozen }

// NextWake returns the earliest cycle after the SM's at which a warp not
// waiting for a load wakes (asleep: none) — the earliest occupied calendar
// slot, else farMin, which lies beyond every slot.
func (s *SM) NextWake() uint64 {
	if s.calBusy == 0 {
		return s.farMin
	}
	next := s.cycle + 1
	return next + uint64(bits.TrailingZeros64(bits.RotateLeft64(s.calBusy, -int(next&63))))
}

// SkipTo stands in for the ticks a frozen SM was not given up to and
// including cycle: each would have repeated the last, so their counts are
// credited in bulk, the clock moves to cycle, and the SM thaws — the owner
// ticks it next time it ticks SMs at all, so a later SkipTo never credits
// cycles in which no SM was ticked. It does nothing to a thawed SM.
func (s *SM) SkipTo(cycle uint64) {
	if !s.frozen {
		return
	}
	n := cycle - s.cycle
	s.stats.Cycles += n
	s.stats.StallNoReadyWarp += n * s.noReady
	s.stats.StallStructural += n * s.parked
	s.advance(cycle)
	s.frozen = false
}

// issueOne attempts to issue one instruction on behalf of scheduler `sched`.
func (s *SM) issueOne(sched int, prog workload.Program) {
	w := s.pickWarp(sched)
	if w < 0 {
		s.stats.StallNoReadyWarp++
		s.noReady++
		return
	}
	s.current[sched] = w

	var op workload.Op
	if s.warps[w].hasPending {
		op = s.warps[w].pending
	} else {
		op = prog.NextOp(s.id, w)
	}
	s.execOp(w, op)
}

// execOp executes one picked instruction on warp w — the tail of issueOne.
func (s *SM) execOp(w int, op workload.Op) {
	if !op.IsMem {
		lat := op.ALULatency
		if lat < 1 {
			lat = 1
		}
		s.retire(w)
		s.sleepUntil(w, s.cycle+uint64(lat))
		return
	}
	if op.Write {
		s.issueStore(w, op)
		return
	}
	s.issueLoad(w, op)
}

// pickWarp implements greedy-then-oldest selection over the warps owned by
// scheduler `sched`: the current warp if it is ready, else the lowest ready
// slot the scheduler owns.
func (s *SM) pickWarp(sched int) int {
	if cur := s.current[sched]; cur >= 0 && s.ready[cur>>6]>>(cur&63)&1 != 0 {
		return cur
	}
	mask := s.schedMask[sched*s.words:]
	for k, word := range s.ready {
		if word &= mask[k]; word != 0 {
			return k<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// advance moves the SM to cycle `to`, making ready the warps whose wake time
// it reaches. Nothing files a warp more than horizon cycles ahead, so on the
// way a slot holds one wake time only and is drained when the cycle gets
// there — late after a stall's gap, never early. A gap the calendar cannot
// span (or a clock set back), and a wake time beyond the horizon coming
// within it, rebuild the sets from wake.
func (s *SM) advance(to uint64) {
	from := s.cycle
	s.cycle = to
	if to-from > horizon || s.farMin <= to+horizon {
		s.rebuild()
		return
	}
	for t := from + 1; t <= to; t++ {
		if s.calBusy>>(t&63)&1 == 0 {
			continue
		}
		s.calBusy &^= 1 << (t & 63)
		slot := s.cal[int(t&63)*s.words:][:s.words]
		for k, word := range slot {
			s.ready[k] |= word
			slot[k] = 0
		}
	}
}

// rebuild derives the ready set, the calendar and farMin from wake and cycle.
func (s *SM) rebuild() {
	clear(s.ready)
	clear(s.cal)
	s.calBusy = 0
	s.farMin = asleep
	for w, at := range s.wake {
		if at != asleep {
			s.file(w, at)
		}
	}
}

// file enters warp w, in neither set, where its wake time `at` (not asleep)
// puts it.
func (s *SM) file(w int, at uint64) {
	switch bit := uint64(1) << (w & 63); {
	case at <= s.cycle:
		s.ready[w>>6] |= bit
	case at-s.cycle <= horizon:
		s.cal[int(at&63)*s.words+w>>6] |= bit
		s.calBusy |= 1 << (at & 63)
	default:
		s.farMin = min(s.farMin, at)
	}
}

// sleepUntil takes the ready warp w out of issue until cycle `at`.
func (s *SM) sleepUntil(w int, at uint64) {
	s.wake[w] = at
	s.ready[w>>6] &^= 1 << (w & 63)
	s.file(w, at)
}

func (s *SM) retire(w int) {
	s.warps[w].hasPending = false
	s.warps[w].issued++
	s.stats.Instructions++
}

// stall parks op on warp w for retry next cycle.
func (s *SM) stall(w int, op workload.Op) {
	s.warps[w].pending = op
	s.warps[w].hasPending = true
	s.stats.StallStructural++
}

func (s *SM) issueStore(w int, op workload.Op) {
	if s.outQ.Len() >= s.outQCap {
		s.stall(w, op)
		return
	}
	// Write-through, no-allocate L1: update the line if present, always
	// forward the store; the warp does not wait for completion.
	if found := s.l1.Find(op.Addr); found.Hit() {
		s.l1.AccessAt(found, cache.Write, -1)
	}
	s.outQ.PushBack(s.newRequest(op.Addr, true, w))
	s.retire(w)
	s.stats.MemInstructions++
	s.stats.Stores++
	s.sleepUntil(w, s.cycle+1)
}

func (s *SM) issueLoad(w int, op workload.Op) {
	if s.warps[w].mshrFull == s.mshrs.Stamp()+1 {
		s.stats.StallStructural++ // still parked on the unchanged full table
		s.parked++
		return
	}
	// A resident line with a clear in-flight bit is not outstanding: a hit,
	// and no MSHR lookup.
	found := s.l1.Find(op.Addr)
	at := found.Index()
	if found.Hit() && s.inflight[at>>6]>>(at&63)&1 == 0 {
		s.hit(w, found)
		return
	}
	lineAddr := s.l1.LineAddr(op.Addr)

	// One MSHR lookup answers the merge question, the acceptance question
	// and — if the access misses — performs the allocation (Probe/Commit;
	// formerly Outstanding, CanAccept and Allocate each scanned the table).
	probe := s.mshrs.Probe(lineAddr)

	// Merge into an outstanding miss if one exists for this line.
	if probe.Outstanding() {
		if !probe.CanAccept() {
			s.stall(w, op)
			return
		}
		s.mshrs.Commit(probe, s.reqCounter)
		s.blockOnLine(w, lineAddr)
		s.retire(w)
		s.stats.MemInstructions++
		s.stats.Loads++
		s.stats.L1Misses++
		return
	}

	if found.Hit() {
		s.inflight[at>>6] &^= 1 << (at & 63) // its fill has come back
		s.hit(w, found)
		return
	}

	// A fresh miss needs both an MSHR and request-queue space; check before
	// touching the tags so a structural stall leaves no side effects. Only
	// the MSHR stall is memoised: the queue drains without moving the stamp.
	if !probe.CanAccept() || s.outQ.Len() >= s.outQCap {
		if !probe.CanAccept() {
			s.warps[w].mshrFull = s.mshrs.Stamp() + 1
		}
		s.stall(w, op)
		return
	}

	_, at = s.l1.AccessAt(found, cache.Read, -1)
	s.inflight[at>>6] |= 1 << (at & 63)
	s.retire(w)
	s.stats.MemInstructions++
	s.stats.Loads++
	s.stats.L1Misses++
	s.mshrs.Commit(probe, s.reqCounter)
	s.outQ.PushBack(s.newRequest(lineAddr, false, w))
	s.blockOnLine(w, lineAddr)
}

// hit issues warp w's load of a resident line with no outstanding miss.
func (s *SM) hit(w int, found cache.Slot) {
	s.l1.AccessAt(found, cache.Read, -1)
	s.retire(w)
	s.stats.MemInstructions++
	s.stats.Loads++
	s.stats.L1Hits++
	s.sleepUntil(w, s.cycle+uint64(s.cfg.L1HitLatency))
}

// blockOnLine takes the ready warp w out of issue until lineAddr's reply: an
// asleep warp is in neither set.
func (s *SM) blockOnLine(w int, lineAddr uint64) {
	s.wake[w] = asleep
	s.ready[w>>6] &^= 1 << (w & 63)
	s.warps[w].blockedLine = lineAddr
}

func (s *SM) newRequest(addr uint64, write bool, warpSlot int) *mem.Request {
	s.reqCounter++
	r := s.pool.Get()
	r.ID = uint64(s.id)<<40 | s.reqCounter
	r.Addr = addr
	r.Write = write
	r.SM = s.id
	r.Cluster = s.cluster
	r.Warp = warpSlot
	r.IssuedAt = s.cycle
	r.AppID = s.appID
	return r
}

// PeekRequest returns the next outgoing memory request without removing it
// (nil when there is none), so the owner can ask the NoC before popping.
func (s *SM) PeekRequest() *mem.Request {
	if s.outQ.Len() == 0 {
		return nil
	}
	return s.outQ.Front()
}

// PopRequest removes and returns the next outgoing memory request, if any.
// If the caller fails to inject it into the NoC it must call UnpopRequest.
func (s *SM) PopRequest() (*mem.Request, bool) {
	if s.outQ.Len() == 0 {
		return nil, false
	}
	return s.outQ.PopFront(), true
}

// UnpopRequest puts r back at the head of the outgoing queue.
func (s *SM) UnpopRequest(r *mem.Request) {
	s.outQ.PushFront(r)
}

// CompleteLoad delivers a reply from the memory system: the L1 line is
// filled (it was already reserved at miss time) and every warp waiting on
// the line wakes up.
func (s *SM) CompleteLoad(r mem.Reply, cycle uint64) {
	line := s.l1.LineAddr(r.Addr)
	s.mshrs.Complete(line)
	s.stats.RepliesReceived++
	woke := uint64(0)
	for k := range s.words {
		// The warps of this word blocked on the line, compared without a
		// branch: which of them are is as random as the replies.
		lo := k << 6
		var mask uint64
		for j, at := range s.wake[lo:min(lo+64, len(s.wake))] {
			mask |= bit(at == asleep) & bit(s.warps[lo+j].blockedLine == line) << j
		}
		woke += uint64(bits.OnesCount64(mask))
		for ; mask != 0; mask &= mask - 1 {
			w := lo + bits.TrailingZeros64(mask)
			s.wake[w] = cycle + 1
			s.file(w, cycle+1)
		}
	}
	if woke == 0 {
		// A reply can legitimately wake zero warps only if the request was
		// purely MSHR-merged bookkeeping; treat anything else as a bug.
		panic(fmt.Sprintf("sm %d: reply for line %#x woke no warp", s.id, line))
	}
	s.stats.LoadsCompleted += woke
	if cycle > r.IssuedAt {
		s.stats.TotalLoadLatency += woke * (cycle - r.IssuedAt)
	}
}

// bit is 1 for true and 0 for false, without a branch.
func bit(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}
