package gpu

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/noc"
	"repro/internal/sm"
	"repro/internal/wire"
)

// sharingWindowCycles is the measurement window for the inter-cluster
// locality characterization (Figure 3 uses 1,000-cycle windows).
const sharingWindowCycles = 1000

// RunStats is the result of one simulation run.
type RunStats struct {
	Cycles       uint64
	Instructions uint64
	IPC          float64

	// Per-application totals (single-program runs have one entry).
	AppInstructions []uint64
	AppIPC          []float64

	SM  sm.Stats
	LLC llc.Stats
	// LLCPerSliceAccesses is the access count per global slice index.
	LLCPerSliceAccesses []uint64
	LLCMissRate         float64
	// LLCResponseFlits is the number of flits injected into the reply
	// network; divided by Cycles it is the paper's LLC response rate.
	LLCResponseFlits uint64
	ResponseRate     float64

	DRAM         dram.Stats
	DRAMAccesses uint64
	ReqNet       noc.Stats
	RepNet       noc.Stats
	NoC          noc.Stats // request + reply combined
	L1MissRate   float64

	// Inter-cluster sharing histogram (fraction of lines touched by 1, 2,
	// 3-4, 5-8+ clusters within 1,000-cycle windows).
	SharingHistogram [4]float64

	// Adaptive-LLC behaviour.
	FinalMode        config.LLCMode
	GatedCycles      uint64
	GatedFraction    float64
	ReconfigCount    uint64
	ReconfigStall    uint64
	ModeCycles       map[config.LLCMode]uint64
	Controller       *core.Stats
	LastPrediction   *core.Prediction
	KernelBoundaries []uint64
}

// Warmup advances the simulation by `cycles` cycles and then clears every
// statistics counter, so that a subsequent Run measures steady-state
// behaviour (caches warm, lockstep established) without cold-start
// transients. The adaptive controller's state is preserved.
func (g *GPU) Warmup(cycles uint64) {
	g.openRun()
	g.loopUntil(cycles, 1, nil)
	g.resetMeasurement()
}

// resetMeasurement clears all statistics gathered so far.
func (g *GPU) resetMeasurement() {
	g.settleSMs(g.cycle)
	for _, s := range g.sms {
		s.ResetStats()
	}
	for _, s := range g.slices {
		s.ResetStats()
	}
	for _, mc := range g.mcs {
		mc.ResetStats()
	}
	g.reqNet.ResetStats()
	g.repNet.ResetStats()
	g.gatedCycles = 0
	g.stallCycles = 0
	g.reconfigCount = 0
	g.sharerBuckets = [4]uint64{}
	g.sharerTotal = 0
	g.kernelBoundaries = nil
	g.modeCycles = [3]uint64{}
}

// Run simulates `cycles` core cycles, splitting them evenly into `kernels`
// kernel invocations (kernel boundaries re-synchronize the workload and, for
// the adaptive LLC, trigger Rule #3), and returns the measured statistics.
// It is RunCheckpointed without a boundary hook.
func (g *GPU) Run(cycles uint64, kernels int) RunStats {
	return g.RunCheckpointed(cycles, kernels, nil)
}

// RunCheckpointed is Run with a kernel-boundary hook: onBoundary(m) is
// invoked at the end of the cycle in which the m-th boundary (1-based) fires,
// after the boundary's own controller and sharing-window work, so a snapshot
// taken inside the hook captures exactly the state a cold run has at that
// point. A nil hook fires nothing.
func (g *GPU) RunCheckpointed(cycles uint64, kernels int, onBoundary func(m int)) RunStats {
	g.openRun()
	return g.ResumeRun(cycles, kernels, onBoundary)
}

// openRun starts a run, and the sharing-window clock, at the current cycle.
func (g *GPU) openRun() {
	g.runStart = g.cycle
	g.sharerWindowEnd = g.cycle + sharingWindowCycles
}

// ResumeRun continues a run restored from a mid-run checkpoint until the run
// that was interrupted would have ended. totalCycles and kernels are the
// original Run arguments (not the remainder): the end cycle and kernel
// schedule are recomputed from the restored runStart, and the sharing-window
// clock is left exactly where the snapshot put it, so the resumed half
// replays the cold run cycle-for-cycle. The returned stats cover the full
// measurement window, identical to what the uninterrupted Run returns.
func (g *GPU) ResumeRun(totalCycles uint64, kernels int, onBoundary func(m int)) RunStats {
	g.loopUntil(totalCycles, kernels, onBoundary)
	return g.collect(totalCycles)
}

// kernelLenFor splits a cycle budget evenly into kernel invocations.
func kernelLenFor(cycles uint64, kernels int) uint64 {
	if kernels < 1 {
		kernels = 1
	}
	kernelLen := cycles / uint64(kernels)
	if kernelLen == 0 {
		kernelLen = cycles
	}
	return kernelLen
}

// loopUntil advances the run opened at g.runStart, `totalCycles` cycles split
// evenly into `kernels` invocations, from the current cycle to its end, firing
// the kernel boundaries still ahead.
func (g *GPU) loopUntil(totalCycles uint64, kernels int, onBoundary func(m int)) {
	kernelLen := kernelLenFor(totalCycles, kernels)
	end := g.runStart + totalCycles
	nextKernel := end
	if kernelLen > 0 {
		nextKernel = g.runStart + kernelLen*((g.cycle-g.runStart)/kernelLen+1)
	}
	loopStart := g.cycle
	for g.cycle < end {
		g.cycle++
		g.modeCycles[g.mode]++
		if g.mode == config.LLCPrivate && g.reqNet.Bypassed() {
			g.gatedCycles++
		}

		// Kernel boundary.
		boundary := 0
		if g.cycle >= nextKernel && g.cycle < end {
			nextKernel += kernelLen
			boundary = int((g.cycle - g.runStart) / kernelLen)
			g.kernelBoundaries = append(g.kernelBoundaries, g.cycle)
			g.prog.NextKernel()
			if g.ctrl != nil {
				if d := g.ctrl.OnKernelLaunch(g.cycle); d != nil {
					g.scheduleReconfig(d)
				}
			}
		}

		g.step()

		// Adaptive controller decision point. The controller's epoch clock
		// runs through transitions too; a decision taken during one waits
		// for it to finish.
		if g.ctrl != nil {
			if d := g.ctrl.Tick(g.cycle); d != nil {
				if g.reconfigActive || g.cycle < g.stallUntil {
					g.pendingDecision = d
				} else {
					g.scheduleReconfig(d)
				}
			}
		}

		// Inter-cluster sharing window.
		if g.cycle >= g.sharerWindowEnd {
			g.collectSharing()
			g.sharerWindowEnd = g.cycle + sharingWindowCycles
		}

		if boundary > 0 && onBoundary != nil {
			onBoundary(boundary)
		}
	}
	// One atomic add per loop entry, not per cycle: the cycle-throughput
	// telemetry costs nothing on the hot path and never touches RunStats.
	cyclesCount.Add(g.cycle - loopStart)
}

// step advances every component by one cycle, in global SM/slice order. It
// visits only the components act marks active; what it skips would have
// done nothing or, for a frozen SM, exactly what it did the tick before.
func (g *GPU) step() {
	stalled := g.reconfigActive || g.cycle < g.stallUntil

	// 1. SMs issue instructions (unless the GPU is stalled for an LLC
	//    reconfiguration) and hand their memory requests to the request NoC.
	if stalled {
		g.stallCycles++
		g.settleSMs(g.cycle - 1) // no skip may span a stall
	} else {
		g.tickSMs()
	}
	if !g.reconfigActive {
		// While draining we stop injecting so the network empties; requests
		// already buffered inside the SMs simply wait.
		g.injectRequests()
	}

	// 2. Request network delivers to LLC slices.
	for _, p := range g.reqNet.Tick() {
		g.slices[p.Dst].EnqueueRequest(p.Req)
		setBit(g.act.sliceIn, p.Dst)
		g.pktPool.Put(p)
	}

	// 3. LLC slices process requests, talk to DRAM and emit replies.
	g.tickSlices()
	g.moveSliceToDRAM()

	// 4. DRAM controllers (DRAMComplete can create same-cycle-ready replies,
	//    so it must precede reply injection).
	for _, mc := range g.mcs {
		for _, done := range mc.Tick() {
			if done.Req.Meta.Fill {
				i := done.Req.Meta.Slice
				g.slices[i].SetCycle(g.cycle) // its tick may have been skipped
				g.slices[i].DRAMComplete(done.Req.Meta.Addr)
				g.fileReply(i)
			}
		}
	}

	// 5. LLC replies into the reply network.
	g.injectReplies()

	// 6. Reply network delivers to SMs; a reply wakes a frozen SM for the
	//    next cycle.
	for _, p := range g.repNet.Tick() {
		g.sms[p.Dst].CompleteLoad(p.Reply, g.cycle)
		setBit(g.act.smDue, p.Dst)
		g.pktPool.Put(p)
	}

	// 7. Reconfiguration progress.
	if g.reconfigActive {
		g.checkDrain()
	}
}

// tickSMs ticks the due SMs. One that comes out of its tick frozen leaves
// the due set until its next wake time or a reply; its ticks until then are
// credited, not run (SkipTo).
func (g *GPU) tickSMs() {
	a := &g.act
	g.wakeSMs()
	for w, word := range a.smDue {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			s := g.sms[i]
			s.SkipTo(g.cycle - 1)
			s.Tick(g.cycle, g.prog)
			a.ticks++
			if s.PeekRequest() != nil {
				setBit(a.smOut, i)
			}
			if s.Frozen() {
				g.freeze(i)
			}
		}
	}
}

// tickSlices ticks the slices with a queued request: to one whose queue is
// empty a tick does nothing but move its clock, which SetCycle does where
// the clock is read.
func (g *GPU) tickSlices() {
	a := &g.act
	for w, word := range a.sliceIn {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			s := g.slices[i]
			s.Tick(g.cycle)
			if s.QueueLen() == 0 {
				a.sliceIn[w] &^= 1 << (i & 63)
			}
			if s.HasDRAMRequest() {
				setBit(a.sliceDRAM, i)
			}
			g.fileReply(i)
		}
	}
}

// The three hand-offs below ask the sink before they pop: Accepts refuses,
// and counts the refusal (InjectStallCycles, StallsFull), exactly where the
// failed Inject/Enqueue of a popped-and-rebuilt item counted it, so a source
// waiting on a full sink costs two loads a cycle instead of a pop, an address
// mapping, a packet or request build and an un-pop. Once a sink has said yes
// nothing runs before the Inject/Enqueue that could change its answer. Each
// visits only the sources with something queued, which are the only ones
// that ever asked.

// injectRequests moves memory requests from the SMs into the request NoC.
func (g *GPU) injectRequests() {
	reqFlits := g.cfg.RequestFlits()
	writeFlits := g.cfg.ReplyFlits() // stores carry a cache line of payload
	observe := g.ctrl != nil && g.mode == config.LLCShared
	a := &g.act
	for w, word := range a.smOut {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			s := g.sms[i]
			req := s.PeekRequest()
			for ; req != nil; req = s.PeekRequest() {
				flits := reqFlits
				if req.Write {
					flits = writeFlits
				}
				if !g.reqNet.Accepts(req.SM, flits) {
					break
				}
				s.PopRequest()
				loc := g.mapper.Map(req.Addr)
				pkt := g.pktPool.Get()
				pkt.ID, pkt.Src, pkt.Dst, pkt.Flits, pkt.Req = req.ID, req.SM, g.sliceFor(req, loc), flits, req
				if !g.reqNet.Inject(pkt) {
					panic("gpu: request network refused a packet it had accepted")
				}
				if observe {
					sharedSlice := loc.Channel*g.cfg.LLCSlicesPerMC + loc.Slice
					g.ctrl.ObserveRequest(req.Addr, req.Cluster, loc.Channel, sharedSlice)
				}
			}
			if req == nil {
				a.smOut[w] &^= 1 << (i & 63)
			}
		}
	}
}

// moveSliceToDRAM forwards LLC miss traffic and write-backs to the memory
// controllers.
func (g *GPU) moveSliceToDRAM() {
	a := &g.act
	for w, word := range a.sliceDRAM {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			s := g.slices[i]
			mc := g.mcs[s.MC()]
			for s.HasDRAMRequest() && mc.Accepts() {
				d, _ := s.PopDRAMRequest()
				loc := g.mapper.Map(d.Addr)
				if !mc.Enqueue(dram.Request{
					ID:    uint64(s.ID())<<48 | uint64(d.Addr>>7),
					Bank:  loc.Bank,
					Row:   loc.Row,
					Write: d.Write,
					Meta:  dram.Meta{Slice: s.ID(), Addr: d.Addr, Fill: d.Fill},
				}) {
					panic("gpu: memory controller refused a request it had accepted")
				}
			}
			if !s.HasDRAMRequest() {
				a.sliceDRAM[w] &^= 1 << (i & 63)
			}
		}
	}
}

// injectReplies moves matured LLC replies into the reply network. It visits
// only the slices whose head reply has matured: one whose head has not would
// not get past HasReply to ask the network.
func (g *GPU) injectReplies() {
	flits := g.cfg.ReplyFlits()
	a := &g.act
	wire.Drain(a.sliceReply, a.replyWheel, int(g.cycle%replySlots)) // heads maturing now
	for w, word := range a.sliceReply {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			s := g.slices[i]
			a.replyVisits++
			for s.HasReply(g.cycle) && g.repNet.Accepts(s.ID(), flits) {
				r, _ := s.PopReply(g.cycle)
				pkt := g.pktPool.Get()
				pkt.ID, pkt.Src, pkt.Dst, pkt.Flits, pkt.Reply = r.ReqID, s.ID(), r.SM, flits, r
				if !g.repNet.Inject(pkt) {
					panic("gpu: reply network refused a packet it had accepted")
				}
			}
			g.fileReply(i)
		}
	}
}

// scheduleReconfig begins the transition requested by the controller.
func (g *GPU) scheduleReconfig(d *core.Decision) {
	if d.Target == g.mode {
		return
	}
	g.reconfigActive = true
	g.reconfigTarget = d.Target
	g.reconfigReason = d.Reason
	g.reconfigStarted = g.cycle
	g.reconfigCount++
}

// checkDrain completes the reconfiguration once the memory system is idle:
// the LLC is flushed (dirty lines are charged against DRAM bandwidth), the
// write policy and NoC bypass are switched, and the GPU stalls for the
// computed overhead (paper §4.1, "Dynamic Reconfiguration").
func (g *GPU) checkDrain() {
	if g.reqNet.Pending() || g.repNet.Pending() {
		return
	}
	for _, s := range g.slices {
		if s.Pending() {
			return
		}
	}
	for _, mc := range g.mcs {
		if !mc.Drain() {
			return
		}
	}

	dirty := 0
	for _, s := range g.slices {
		_, d := s.Flush()
		dirty += d
	}
	cost := core.ReconfigCost(g.cfg, dirty)
	if err := g.applyMode(g.reconfigTarget); err != nil {
		// Only the bypass switch can fail, and the slices were just
		// flushed; failure here is a programming error.
		panic(err)
	}
	drainTime := g.cycle - g.reconfigStarted
	g.stallUntil = g.cycle + cost
	g.reconfigActive = false
	if g.ctrl != nil {
		g.ctrl.ReportReconfigOverhead(drainTime + cost)
		if g.pendingDecision != nil {
			d := g.pendingDecision
			g.pendingDecision = nil
			g.scheduleReconfig(d)
		}
	}
}

// collectSharing samples the per-line sharer histograms of all slices and
// resets them for the next window.
func (g *GPU) collectSharing() {
	for _, s := range g.slices {
		one, two, threeFour, fivePlus, total := s.Tags().SharerHistogram()
		g.sharerBuckets[0] += uint64(one)
		g.sharerBuckets[1] += uint64(two)
		g.sharerBuckets[2] += uint64(threeFour)
		g.sharerBuckets[3] += uint64(fivePlus)
		g.sharerTotal += uint64(total)
		s.Tags().ResetSharers()
	}
}

// collect builds the RunStats snapshot.
func (g *GPU) collect(cycles uint64) RunStats {
	g.settleSMs(g.cycle)
	modeCycles := make(map[config.LLCMode]uint64)
	for m, c := range g.modeCycles {
		if c > 0 {
			modeCycles[config.LLCMode(m)] = c
		}
	}
	rs := RunStats{
		Cycles:           cycles,
		FinalMode:        g.mode,
		GatedCycles:      g.gatedCycles,
		ReconfigCount:    g.reconfigCount,
		ReconfigStall:    g.stallCycles,
		ModeCycles:       modeCycles,
		KernelBoundaries: append([]uint64(nil), g.kernelBoundaries...),
	}
	if cycles > 0 {
		rs.GatedFraction = float64(g.gatedCycles) / float64(cycles)
	}

	rs.AppInstructions = make([]uint64, g.numApps)
	rs.AppIPC = make([]float64, g.numApps)
	for i, s := range g.sms {
		st := s.Stats()
		rs.SM.Add(st)
		rs.Instructions += st.Instructions
		rs.AppInstructions[g.smApp[i]] += st.Instructions
	}
	if cycles > 0 {
		rs.IPC = float64(rs.Instructions) / float64(cycles)
		for a := range rs.AppIPC {
			rs.AppIPC[a] = float64(rs.AppInstructions[a]) / float64(cycles)
		}
	}
	rs.L1MissRate = rs.SM.L1MissRate()

	rs.LLCPerSliceAccesses = make([]uint64, len(g.slices))
	for i, s := range g.slices {
		st := s.Stats()
		rs.LLC.Add(st)
		rs.LLCPerSliceAccesses[i] = st.Accesses
	}
	rs.LLCMissRate = rs.LLC.MissRate()
	rs.LLCResponseFlits = g.repNet.Stats().FlitsInjected
	if cycles > 0 {
		rs.ResponseRate = float64(rs.LLCResponseFlits) / float64(cycles)
	}

	for _, mc := range g.mcs {
		st := mc.Stats()
		rs.DRAM.Requests += st.Requests
		rs.DRAM.Reads += st.Reads
		rs.DRAM.Writes += st.Writes
		rs.DRAM.RowHits += st.RowHits
		rs.DRAM.RowMisses += st.RowMisses
		rs.DRAM.RowConflicts += st.RowConflicts
		rs.DRAM.BytesMoved += st.BytesMoved
		rs.DRAM.BusyCycles += st.BusyCycles
		rs.DRAM.TotalQueueing += st.TotalQueueing
		rs.DRAM.Completed += st.Completed
		rs.DRAM.StallsFull += st.StallsFull
	}
	rs.DRAMAccesses = rs.DRAM.Requests

	rs.ReqNet = g.reqNet.Stats()
	rs.RepNet = g.repNet.Stats()
	rs.NoC = rs.ReqNet
	rs.NoC.Add(rs.RepNet)

	if g.sharerTotal > 0 {
		for i := range rs.SharingHistogram {
			rs.SharingHistogram[i] = float64(g.sharerBuckets[i]) / float64(g.sharerTotal)
		}
	}

	if g.ctrl != nil {
		st := g.ctrl.Stats()
		rs.Controller = &st
		pred := g.ctrl.LastPrediction()
		rs.LastPrediction = &pred
	}
	return rs
}

// SliceWritePolicy reports the current write policy of slice 0 (all slices
// share the same policy); exported for tests.
func (g *GPU) SliceWritePolicy() cache.WritePolicy {
	return g.slices[0].WritePolicy()
}
