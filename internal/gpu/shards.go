package gpu

import (
	"runtime"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/pool"
)

// shardEngine executes the parallel phases of GPU.step across a fixed number
// of shards, each owning a contiguous range of SMs and LLC slices. Every
// cycle alternates short parallel phases (per-shard component ticks, which
// touch only the shard's own SMs and slices) with the serial phases of step,
// which move the traffic those ticks queued in global SM/slice index order,
// so the NoCs, the memory controllers, the adaptive controller and the
// workload program observe exactly the event sequence the serial loop
// produces — statistics and state snapshots are byte-identical for any shard
// count (see DESIGN.md "Deterministic parallel cycle loop").
//
// Workers are persistent goroutines synchronized by a generation-counter
// spin barrier (with runtime.Gosched backoff, so oversubscribed hosts stay
// live); they are started when a run loop is entered and stopped when it
// exits. Each shard has its own mem.Request free-list, shared by the
// shard's SMs and slices and rebalanced serially at the end of every cycle,
// so the zero-allocation steady state survives cross-shard traffic without
// any locking on the hot path.
type shardEngine struct {
	g *GPU
	n int

	// Shard ownership: shard k owns SMs [smLo[k], smHi[k]) and slices
	// [slLo[k], slHi[k]).
	smLo, smHi []int
	slLo, slHi []int
	smShard    []int // SM index -> owning shard
	slShard    []int // slice index -> owning shard

	// Per-shard request free-lists (see rebalancePools).
	reqPools []*pool.FreeList[mem.Request]

	// replyWork stages a cycle's reply-net deliveries per destination-SM
	// shard; reused across cycles.
	replyWork [][]*noc.Packet

	// Pre-bound phase closures so the hot loop does not allocate.
	fnPlan    func(int)
	fnExec    func(int)
	fnSlices  func(int)
	fnDeliver func(int)

	// Worker-pool barrier state. fn/panics are plain fields: writes are
	// published to the workers by the atomic gen bump and read back by the
	// atomic pending countdown (both synchronizing per the Go memory model).
	started bool
	fn      func(int)
	gen     uint32
	pending int32
	panics  []any
}

func newShardEngine(g *GPU, n int) *shardEngine {
	e := &shardEngine{
		g:         g,
		n:         n,
		smLo:      make([]int, n),
		smHi:      make([]int, n),
		slLo:      make([]int, n),
		slHi:      make([]int, n),
		smShard:   make([]int, len(g.sms)),
		slShard:   make([]int, len(g.slices)),
		reqPools:  make([]*pool.FreeList[mem.Request], n),
		replyWork: make([][]*noc.Packet, n),
		panics:    make([]any, n),
	}
	for k := 0; k < n; k++ {
		e.smLo[k] = k * len(g.sms) / n
		e.smHi[k] = (k + 1) * len(g.sms) / n
		e.slLo[k] = k * len(g.slices) / n
		e.slHi[k] = (k + 1) * len(g.slices) / n
		e.reqPools[k] = &pool.FreeList[mem.Request]{}
		for i := e.smLo[k]; i < e.smHi[k]; i++ {
			e.smShard[i] = k
			g.sms[i].UseRequestPool(e.reqPools[k])
		}
		for i := e.slLo[k]; i < e.slHi[k]; i++ {
			e.slShard[i] = k
			g.slices[i].UseRequestPool(e.reqPools[k])
		}
	}
	e.fnPlan = e.planShard
	e.fnExec = e.execShard
	e.fnSlices = e.sliceShard
	e.fnDeliver = e.deliverShard
	return e
}

// start spawns the n-1 worker goroutines (shard 0 runs on the caller).
func (e *shardEngine) start() {
	if e.started || e.n <= 1 {
		return
	}
	e.started = true
	// Capture the barrier generation before spawning: a worker that loaded
	// it itself could race with the first parallel() bump and wait for a
	// generation that already passed.
	base := atomic.LoadUint32(&e.gen)
	for k := 1; k < e.n; k++ {
		go e.worker(k, base)
	}
}

// stop terminates the workers and waits for them to exit.
func (e *shardEngine) stop() {
	if !e.started {
		return
	}
	e.started = false
	e.fn = nil
	atomic.StoreInt32(&e.pending, int32(e.n-1))
	atomic.AddUint32(&e.gen, 1)
	e.awaitPending()
}

func (e *shardEngine) worker(k int, last uint32) {
	for {
		last = e.awaitGen(last, k)
		fn := e.fn
		if fn == nil {
			atomic.AddInt32(&e.pending, -1)
			return
		}
		e.runShard(fn, k)
		atomic.AddInt32(&e.pending, -1)
	}
}

// runShard executes one shard's phase work, capturing panics so a worker
// failure (e.g. an SM invariant violation) surfaces on the main goroutine
// after the barrier instead of killing the process from a bare goroutine.
func (e *shardEngine) runShard(fn func(int), k int) {
	defer func() {
		if r := recover(); r != nil {
			e.panics[k] = r
		}
	}()
	fn(k)
}

// parallel runs fn(shard) on every shard concurrently and returns once all
// shards finished (re-panicking if any shard panicked).
func (e *shardEngine) parallel(fn func(int)) {
	if !e.started {
		// Degenerate (tests poking a single step without a run loop): run
		// the shards inline; the result is identical, only slower.
		for k := 0; k < e.n; k++ {
			fn(k)
		}
		return
	}
	e.fn = fn
	atomic.StoreInt32(&e.pending, int32(e.n-1))
	atomic.AddUint32(&e.gen, 1)
	e.runShard(fn, 0)
	e.awaitPending()
	for k, p := range e.panics {
		if p != nil {
			e.panics[k] = nil
			panic(p)
		}
	}
}

// awaitGen spins until the barrier generation moves past `last`. The first
// iterations spin hot (phase hand-offs are sub-microsecond on a busy
// multicore); after that every iteration yields so oversubscribed hosts
// (shards > GOMAXPROCS) keep making progress. The iterations spent waiting
// accumulate into shard k's telemetry slot with a single atomic add on
// exit — the wait loop itself touches no shared counter.
func (e *shardEngine) awaitGen(last uint32, k int) uint32 {
	for i := 0; ; i++ {
		if gen := atomic.LoadUint32(&e.gen); gen != last {
			if i > 0 {
				barrierSpins[k%MaxTelemetryShards].v.Add(uint64(i))
			}
			return gen
		}
		if i > 128 {
			runtime.Gosched()
		}
	}
}

// awaitPending is the coordinator's half of the barrier; its waits count
// against shard slot 0 (the coordinator runs shard 0's work inline).
func (e *shardEngine) awaitPending() {
	for i := 0; ; i++ {
		if atomic.LoadInt32(&e.pending) == 0 {
			if i > 0 {
				barrierSpins[0].v.Add(uint64(i))
			}
			return
		}
		if i > 128 {
			runtime.Gosched()
		}
	}
}

// planShard computes scheduler picks for the shard's SMs (phase P1).
func (e *shardEngine) planShard(k int) {
	g := e.g
	for i := e.smLo[k]; i < e.smHi[k]; i++ {
		g.sms[i].PlanIssue(g.cycle)
	}
}

// execShard executes the planned issues (phase P2). The requests the SMs
// queue are injected afterwards by the serial injectRequests, in global SM
// order.
func (e *shardEngine) execShard(k int) {
	g := e.g
	for i := e.smLo[k]; i < e.smHi[k]; i++ {
		g.sms[i].TickPlanned()
	}
}

// sliceShard ticks the shard's LLC slices (phase P3); their DRAM traffic is
// forwarded afterwards by the serial moveSliceToDRAM, in global slice order.
func (e *shardEngine) sliceShard(k int) {
	g := e.g
	for i := e.slLo[k]; i < e.slHi[k]; i++ {
		g.slices[i].Tick(g.cycle)
	}
}

// deliverShard completes the shard's share of reply-net deliveries (phase
// P4). Per-SM delivery order equals global delivery order restricted to the
// SM, and CompleteLoad only touches the destination SM, so concurrent
// delivery is order-equivalent to the serial sweep.
func (e *shardEngine) deliverShard(k int) {
	g := e.g
	for _, p := range e.replyWork[k] {
		g.sms[p.Dst].CompleteLoad(p.Reply, g.cycle)
	}
}

// rebalancePools evens out the per-shard request free-lists (serial, end of
// cycle). Requests retire into the pool of the answering slice's shard but
// are re-acquired from the issuing SM's shard pool; with a skewed traffic
// pattern one pool would otherwise drain — and grow by chunk allocation —
// every cycle while another hoards. Per-cycle drift is bounded by the
// per-cycle retirement rate, so this is a handful of pointer moves.
func (e *shardEngine) rebalancePools() {
	total := 0
	for _, p := range e.reqPools {
		total += p.FreeLen()
	}
	target := total / e.n
	d := 0 // donor index
	for _, rp := range e.reqPools {
		for rp.FreeLen() < target {
			for d < e.n && e.reqPools[d].FreeLen() <= target {
				d++
			}
			if d >= e.n {
				return
			}
			dp := e.reqPools[d]
			need := target - rp.FreeLen()
			if surplus := dp.FreeLen() - target; surplus < need {
				need = surplus
			}
			if dp.MoveTo(rp, need) == 0 {
				return
			}
		}
	}
}

// tickSMs issues one cycle of SM instructions in three sub-phases: parallel
// scheduler picks (P1), a serial op feed consulting the workload program in
// global SM/scheduler order (the program is not safe for concurrent use and
// its op sequence is part of the determinism contract), and parallel
// execution (P2).
func (e *shardEngine) tickSMs() {
	g := e.g
	e.parallel(e.fnPlan)
	for _, s := range g.sms {
		for sched := 0; sched < s.Schedulers(); sched++ {
			if w, need := s.PlanNeedsOp(sched); need {
				s.SupplyOp(sched, g.prog.NextOp(s.ID(), w))
			}
		}
	}
	e.parallel(e.fnExec)
}

// deliver completes a cycle's reply-net deliveries: partitioned by
// destination shard and completed in parallel (P4) — or inline when the
// cycle delivered too few replies to pay for a barrier. Either way each SM
// sees its replies in global delivery order.
func (e *shardEngine) deliver(delivered []*noc.Packet) {
	g := e.g
	if len(delivered) < 2*e.n {
		for _, p := range delivered {
			g.sms[p.Dst].CompleteLoad(p.Reply, g.cycle)
			g.pktPool.Put(p)
		}
		return
	}
	for _, p := range delivered {
		k := e.smShard[p.Dst]
		e.replyWork[k] = append(e.replyWork[k], p)
	}
	e.parallel(e.fnDeliver)
	for k := 0; k < e.n; k++ {
		for i, p := range e.replyWork[k] {
			g.pktPool.Put(p)
			e.replyWork[k][i] = nil
		}
		e.replyWork[k] = e.replyWork[k][:0]
	}
}
