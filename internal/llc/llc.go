// Package llc models the memory-side last-level cache slices.
//
// A Slice is the unit of LLC organization in the paper: every memory
// controller owns SlicesPerMC slices, and a slice only ever caches lines of
// the memory partition served by its controller. Under a shared LLC a slice
// is indexed by address bits and serves all SMs; under a private LLC it is
// indexed by the requester's cluster and serves only that cluster, caching
// the controller's entire partition for it.
//
// The slice model is cycle-driven: it accepts requests delivered by the NoC,
// performs one tag access per cycle, allocates MSHRs on misses, emits DRAM
// requests and, when data is available (hit after the access latency, or
// DRAM fill), emits replies that the owner injects into the reply network.
package llc

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/ring"
)

// Stats aggregates slice activity.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// MergedMisses counts reads that found their line already outstanding in
	// an MSHR: they do not cost a DRAM access, so they are also counted as
	// hits for miss-rate purposes (GPGPU-Sim's "hit reserved" outcome).
	MergedMisses uint64
	Reads        uint64
	Writes       uint64
	Fills        uint64
	Writebacks   uint64 // lines written to DRAM (dirty evictions or write-through stores)
	RepliesSent  uint64
	MSHRStalls   uint64
	PeakQueue    int
	QueueCycles  uint64 // sum of queue occupancy per cycle (for average queue depth)
}

// MissRate returns Misses/Accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate returns Hits/Accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.MergedMisses += other.MergedMisses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Fills += other.Fills
	s.Writebacks += other.Writebacks
	s.RepliesSent += other.RepliesSent
	s.MSHRStalls += other.MSHRStalls
	s.QueueCycles += other.QueueCycles
	if other.PeakQueue > s.PeakQueue {
		s.PeakQueue = other.PeakQueue
	}
}

// DRAMRequest is a line-granularity request the slice wants to send to its
// memory controller.
type DRAMRequest struct {
	Addr  uint64
	Write bool
	// Fill indicates the request is a read that must fill the slice and wake
	// merged requesters on completion (as opposed to a fire-and-forget
	// writeback).
	Fill bool
}

// pendingReply is a reply waiting for its release cycle (models the LLC
// access latency) before it can be injected into the reply network.
type pendingReply struct {
	reply   mem.Reply
	readyAt uint64
}

// Slice is one memory-side LLC slice.
type Slice struct {
	id    int // global slice index
	mc    int // owning memory controller
	local int // slice index within the memory controller

	tags *cache.Cache
	// mshrs tracks outstanding miss lines; each entry's payload is the
	// merged requests the slice must answer when the DRAM fill returns.
	mshrs   *cache.MSHRTable[*mem.Request]
	latency uint64

	cfg config.Config

	// inq is the request queue fed by the NoC. The NoC's per-port
	// serialization already limits arrival rate; the queue itself is
	// unbounded and its occupancy is the paper's "requests queue up in front
	// of the LLC slice" effect.
	inq ring.Deque[*mem.Request]

	// Output queues drained by the owner each cycle.
	dramOut  ring.Deque[DRAMRequest]
	replyOut ring.Deque[pendingReply]

	// pool receives requests once the slice has fully answered them; shared
	// with the SMs (see SM.UseRequestPool).
	pool *pool.FreeList[mem.Request]

	// parked records that the head of inq is a read that misses the tags and
	// found the MSHR table full at stamp parkStamp. Until the stamp moves
	// the answer stands: outstanding lines change only with the stamp, and
	// the tags only inside process (which does not run while the head is
	// parked), Flush, SetWritePolicy and RestoreState, which clear the memo.
	parked    bool
	parkStamp uint64

	cycle uint64
	stats Stats
}

// NewSlice creates slice `id` (global index) owned by memory controller mc.
func NewSlice(id, mc, local int, cfg config.Config) *Slice {
	tagCfg := cache.Config{
		SizeBytes: cfg.LLCSliceBytes,
		Ways:      cfg.LLCWays,
		LineBytes: cfg.LLCLineBytes,
		Policy:    cache.WriteBack,
	}
	return &Slice{
		id:      id,
		mc:      mc,
		local:   local,
		tags:    cache.New(tagCfg),
		mshrs:   cache.NewMSHRTable[*mem.Request](cfg.LLCMSHRsPerSlice, 0),
		latency: uint64(cfg.LLCLatency),
		cfg:     cfg,
		pool:    &pool.FreeList[mem.Request]{},
	}
}

// UseRequestPool replaces the slice's request pool. The GPU shares one pool
// between all SMs and all LLC slices so that requests retired here are
// reused by the SMs' issue path.
func (s *Slice) UseRequestPool(p *pool.FreeList[mem.Request]) {
	if p != nil {
		s.pool = p
	}
}

// ID returns the global slice index.
func (s *Slice) ID() int { return s.id }

// MC returns the owning memory controller index.
func (s *Slice) MC() int { return s.mc }

// Local returns the slice index within its memory controller.
func (s *Slice) Local() int { return s.local }

// Stats returns a snapshot of the slice statistics.
func (s *Slice) Stats() Stats { return s.stats }

// ResetStats clears statistics (cache contents are preserved).
func (s *Slice) ResetStats() { s.stats = Stats{} }

// Tags exposes the underlying tag store (used for sharing characterization
// and by the adaptive controller's profiling hooks).
func (s *Slice) Tags() *cache.Cache { return s.tags }

// SetWritePolicy switches between write-back (shared mode) and
// write-through (private mode) store handling.
func (s *Slice) SetWritePolicy(p cache.WritePolicy) {
	// The tag store's policy only matters for how it marks lines dirty, and
	// policy changes happen only at reconfiguration boundaries, when the
	// slice has been flushed: the empty tag store switches in place.
	if s.tags.Config().Policy == p {
		return
	}
	if s.tags.ValidLines() != 0 {
		panic("llc: write policy change requires a flushed slice")
	}
	s.tags.Reset(p)
	s.parked = false
}

// WritePolicy returns the current store-handling policy.
func (s *Slice) WritePolicy() cache.WritePolicy { return s.tags.Config().Policy }

// QueueLen returns the current request queue occupancy.
func (s *Slice) QueueLen() int { return s.inq.Len() }

// SetCycle moves the slice's clock to cycle without a Tick, which is all a
// Tick does to a slice whose request queue is empty: an owner that skips
// those ticks sets the clock before DRAMComplete stamps replies with it and
// before SaveState records it.
func (s *Slice) SetCycle(cycle uint64) { s.cycle = cycle }

// Pending reports whether the slice still has queued requests, outstanding
// misses or unemitted output.
func (s *Slice) Pending() bool {
	return s.inq.Len() > 0 || s.mshrs.Occupancy() > 0 || s.dramOut.Len() > 0 || s.replyOut.Len() > 0
}

// EnqueueRequest accepts a request delivered by the NoC.
func (s *Slice) EnqueueRequest(r *mem.Request) {
	if r == nil {
		panic("llc: nil request")
	}
	s.inq.PushBack(r)
	if s.inq.Len() > s.stats.PeakQueue {
		s.stats.PeakQueue = s.inq.Len()
	}
}

// Tick advances the slice by one cycle: it admits at most one request from
// the input queue into the tag pipeline and matures pending replies.
func (s *Slice) Tick(cycle uint64) {
	s.cycle = cycle
	s.stats.QueueCycles += uint64(s.inq.Len())
	if s.inq.Len() == 0 {
		return
	}
	if s.parked {
		if s.parkStamp == s.mshrs.Stamp() {
			s.stats.MSHRStalls++ // what re-running process would conclude
			return
		}
		s.parked = false
	}
	if !s.process(s.inq.Front()) {
		return // stalled (MSHRs full); retry next cycle
	}
	s.inq.PopFront()
}

// process runs the tag access for r. It returns false if the request could
// not be handled this cycle and must be retried.
func (s *Slice) process(r *mem.Request) bool {
	lineAddr := s.tags.LineAddr(r.Addr)

	// One MSHR lookup answers the merge question, the acceptance question
	// and — if the read misses — performs the allocation (Probe/Commit;
	// formerly Outstanding, CanAccept and Allocate each scanned the table).
	var probe cache.Probe
	if !r.Write {
		probe = s.mshrs.Probe(lineAddr)
		// A read that merges into an outstanding miss does not need a tag
		// access outcome of its own.
		if probe.Outstanding() {
			if !probe.CanAccept() {
				s.stats.MSHRStalls++
				return false
			}
			s.mshrs.Commit(probe, r)
			s.stats.Accesses++
			s.stats.Reads++
			s.stats.Hits++
			s.stats.MergedMisses++
			return true
		}
	}
	// A read that would miss needs an MSHR; stall before touching the tags
	// (and the statistics) if none is available.
	found := s.tags.Find(r.Addr)
	if !r.Write && !found.Hit() && !probe.CanAccept() {
		s.stats.MSHRStalls++
		s.parked, s.parkStamp = true, s.mshrs.Stamp()
		return false
	}

	kind := cache.Read
	if r.Write {
		kind = cache.Write
	}
	res, _ := s.tags.AccessAt(found, kind, r.Cluster)

	s.stats.Accesses++
	if r.Write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}

	if res.Evicted && res.WritebackReq && !r.Write {
		// Dirty eviction caused by a read allocation.
		s.emitDRAM(DRAMRequest{Addr: res.EvictedAddr, Write: true})
	}

	if r.Write {
		return s.processWrite(r, res)
	}
	return s.processRead(r, lineAddr, probe, res)
}

func (s *Slice) processRead(r *mem.Request, lineAddr uint64, probe cache.Probe, res cache.Result) bool {
	if res.Hit {
		s.stats.Hits++
		s.replyOut.PushBack(pendingReply{
			reply: mem.Reply{
				ReqID: r.ID, Addr: r.Addr, SM: r.SM, Warp: r.Warp, AppID: r.AppID,
				HitLLC: true, IssuedAt: r.IssuedAt, CreatedAt: s.cycle,
			},
			readyAt: s.cycle + s.latency,
		})
		s.pool.Put(r) // answered: the reply carries everything the SM needs
		return true
	}
	s.stats.Misses++
	if s.mshrs.Commit(probe, r) {
		s.emitDRAM(DRAMRequest{Addr: lineAddr, Fill: true})
	}
	return true
}

func (s *Slice) processWrite(r *mem.Request, res cache.Result) bool {
	if res.Hit {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	if res.WritebackReq && s.WritePolicy() == cache.WriteThrough {
		// Write-through: forward the store to DRAM immediately.
		s.emitDRAM(DRAMRequest{Addr: s.tags.LineAddr(r.Addr), Write: true})
	}
	if res.Evicted && res.WritebackReq && s.WritePolicy() == cache.WriteBack {
		// Write-back mode dirty eviction triggered by a write allocation.
		s.emitDRAM(DRAMRequest{Addr: res.EvictedAddr, Write: true})
	}
	// Stores do not generate replies: GPU stores retire at issue.
	s.pool.Put(r)
	return true
}

func (s *Slice) emitDRAM(d DRAMRequest) {
	s.dramOut.PushBack(d)
	if d.Write {
		s.stats.Writebacks++
	}
}

// DRAMComplete notifies the slice that the read of lineAddr finished. The
// line is filled and all merged requesters receive replies.
func (s *Slice) DRAMComplete(lineAddr uint64) {
	waiting := s.mshrs.Complete(lineAddr)
	if waiting == nil {
		panic(fmt.Sprintf("llc slice %d: fill for %#x without outstanding miss", s.id, lineAddr))
	}
	s.stats.Fills++
	for _, r := range waiting {
		s.replyOut.PushBack(pendingReply{
			reply: mem.Reply{
				ReqID: r.ID, Addr: r.Addr, SM: r.SM, Warp: r.Warp, AppID: r.AppID,
				HitLLC: false, IssuedAt: r.IssuedAt, CreatedAt: s.cycle,
			},
			readyAt: s.cycle, // DRAM latency already elapsed
		})
		s.pool.Put(r)
	}
}

// HasDRAMRequest reports whether PopDRAMRequest would return a request, so
// the owner can ask the memory controller before popping.
func (s *Slice) HasDRAMRequest() bool { return s.dramOut.Len() > 0 }

// PopDRAMRequest returns the next DRAM request, if any. The caller must only
// consume it if the memory controller accepted it; otherwise call
// UnpopDRAMRequest to retry later.
func (s *Slice) PopDRAMRequest() (DRAMRequest, bool) {
	if s.dramOut.Len() == 0 {
		return DRAMRequest{}, false
	}
	return s.dramOut.PopFront(), true
}

// UnpopDRAMRequest puts d back at the head of the DRAM output queue.
func (s *Slice) UnpopDRAMRequest(d DRAMRequest) {
	s.dramOut.PushFront(d)
}

// HasReply reports whether PopReply(cycle) would return a reply, so the
// owner can ask the reply network before popping.
func (s *Slice) HasReply(cycle uint64) bool {
	return s.replyOut.Len() > 0 && s.replyOut.Front().readyAt <= cycle
}

// NextReplyAt returns the cycle from which HasReply holds: the ready cycle of
// the head reply, which the replies behind it wait for however early theirs
// is (^0: no reply queued). Until the head is popped only the clock moves
// the answer, so an owner can wait for that cycle instead of asking HasReply.
func (s *Slice) NextReplyAt() uint64 {
	if s.replyOut.Len() == 0 {
		return ^uint64(0)
	}
	return s.replyOut.Front().readyAt
}

// PopReply returns the next reply whose LLC latency has elapsed. The caller
// must only consume it if the reply network accepted it; otherwise call
// UnpopReply.
func (s *Slice) PopReply(cycle uint64) (mem.Reply, bool) {
	if !s.HasReply(cycle) {
		return mem.Reply{}, false
	}
	pr := s.replyOut.PopFront()
	s.stats.RepliesSent++
	return pr.reply, true
}

// UnpopReply puts r back at the head of the reply queue (it remains ready).
func (s *Slice) UnpopReply(r mem.Reply) {
	s.replyOut.PushFront(pendingReply{reply: r, readyAt: 0})
	s.stats.RepliesSent--
}

// Flush invalidates the whole slice, returning the number of valid and
// dirty lines. The caller accounts for the write-back time of dirty lines
// during reconfiguration.
func (s *Slice) Flush() (valid, dirty int) {
	s.parked = false
	return s.tags.FlushAll()
}
