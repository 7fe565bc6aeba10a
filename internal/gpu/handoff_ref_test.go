package gpu

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/workload"
)

// popUnpopStep is the serial cycle with the three hand-offs as they were
// before they asked the sink first: pop the item, map its address, build the
// packet or request, offer it, and on refusal put everything back. The
// refusal is counted by the failed Inject/Enqueue. It is the definition the
// peeking hand-offs must reproduce counter for counter. It knows nothing of
// reconfiguration stalls: static LLC organizations only.
func popUnpopStep(g *GPU) {
	for _, s := range g.sms {
		s.Tick(g.cycle, g.prog)
	}
	reqFlits, writeFlits := g.cfg.RequestFlits(), g.cfg.ReplyFlits()
	for _, s := range g.sms {
		for {
			req, ok := s.PopRequest()
			if !ok {
				break
			}
			flits := reqFlits
			if req.Write {
				flits = writeFlits
			}
			pkt := g.pktPool.Get()
			pkt.ID, pkt.Src, pkt.Dst, pkt.Flits, pkt.Req = req.ID, req.SM, g.sliceFor(req, g.mapper.Map(req.Addr)), flits, req
			if !g.reqNet.Inject(pkt) {
				g.pktPool.Put(pkt)
				s.UnpopRequest(req)
				break
			}
		}
	}
	for _, p := range g.reqNet.Tick() {
		g.slices[p.Dst].EnqueueRequest(p.Req)
		g.pktPool.Put(p)
	}
	for _, s := range g.slices {
		s.Tick(g.cycle)
	}
	for _, s := range g.slices {
		for {
			d, ok := s.PopDRAMRequest()
			if !ok {
				break
			}
			loc := g.mapper.Map(d.Addr)
			req := dram.Request{
				ID:    uint64(s.ID())<<48 | uint64(d.Addr>>7),
				Bank:  loc.Bank,
				Row:   loc.Row,
				Write: d.Write,
				Meta:  dram.Meta{Slice: s.ID(), Addr: d.Addr, Fill: d.Fill},
			}
			if !g.mcs[s.MC()].Enqueue(req) {
				s.UnpopDRAMRequest(d)
				break
			}
		}
	}
	for _, mc := range g.mcs {
		for _, done := range mc.Tick() {
			if done.Req.Meta.Fill {
				g.slices[done.Req.Meta.Slice].DRAMComplete(done.Req.Meta.Addr)
			}
		}
	}
	flits := g.cfg.ReplyFlits()
	for _, s := range g.slices {
		for {
			r, ok := s.PopReply(g.cycle)
			if !ok {
				break
			}
			pkt := g.pktPool.Get()
			pkt.ID, pkt.Src, pkt.Dst, pkt.Flits, pkt.Reply = r.ReqID, s.ID(), r.SM, flits, r
			if !g.repNet.Inject(pkt) {
				g.pktPool.Put(pkt)
				s.UnpopReply(r)
				break
			}
		}
	}
	for _, p := range g.repNet.Tick() {
		g.sms[p.Dst].CompleteLoad(p.Reply, g.cycle)
		g.pktPool.Put(p)
	}
}

// TestPeekingHandoffsMatchPopAndUnpop runs the full-size GPU from cold on a
// memory-saturated workload (LUD, shared LLC) and a compute-bound one (MM,
// private LLC) twice — once with the hand-offs that ask first, once with the
// pop-and-unpop reference — and requires identical RunStats: StallsFull,
// InjectStallCycles and RepliesSent in particular count a refused hand-off
// exactly as before.
func TestPeekingHandoffsMatchPopAndUnpop(t *testing.T) {
	cycles := uint64(12000)
	if testing.Short() {
		cycles = 5000
	}
	for _, tc := range []struct {
		abbr string
		mode config.LLCMode
	}{{"LUD", config.LLCShared}, {"MM", config.LLCPrivate}} {
		t.Run(tc.abbr+"-"+tc.mode.String(), func(t *testing.T) {
			cfg := config.Baseline()
			cfg.LLCMode = tc.mode
			spec, ok := workload.ByAbbr(tc.abbr)
			if !ok {
				t.Fatalf("unknown benchmark %s", tc.abbr)
			}
			build := func() *GPU {
				g, err := New(cfg, workload.MustNewGenerator(spec, cfg, 11))
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			got, want := build().Run(cycles, 1), refRun(build(), popUnpopStep, cycles, 1, nil)
			if got.DRAM.StallsFull != want.DRAM.StallsFull ||
				got.ReqNet.InjectStallCycles != want.ReqNet.InjectStallCycles ||
				got.RepNet.InjectStallCycles != want.RepNet.InjectStallCycles ||
				got.LLC.RepliesSent != want.LLC.RepliesSent {
				t.Errorf("refusal counters: StallsFull %d/%d, request InjectStallCycles %d/%d, reply InjectStallCycles %d/%d, RepliesSent %d/%d (peek/reference)",
					got.DRAM.StallsFull, want.DRAM.StallsFull, got.ReqNet.InjectStallCycles, want.ReqNet.InjectStallCycles,
					got.RepNet.InjectStallCycles, want.RepNet.InjectStallCycles, got.LLC.RepliesSent, want.LLC.RepliesSent)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RunStats differ:\npeek:      %+v\nreference: %+v", got, want)
			}
			if got.ReqNet.InjectStallCycles == 0 || got.LLC.RepliesSent == 0 {
				t.Errorf("the run refused nothing: %+v", got.ReqNet)
			}
			if tc.abbr == "LUD" && (got.DRAM.StallsFull == 0 || got.RepNet.InjectStallCycles == 0 || got.LLC.MSHRStalls == 0) {
				t.Errorf("LUD/shared did not saturate the memory side: %d controller refusals, %d reply-net refusals, %d MSHR stalls",
					got.DRAM.StallsFull, got.RepNet.InjectStallCycles, got.LLC.MSHRStalls)
			}
		})
	}
}

// TestParentStyleSnapshotResumesIdentically: the pop-and-unpop hand-off left
// a reply the network had refused in the slice's queue with ReadyAt 0
// ("still ready"), and snapshots banked by such a build carry that; the
// peeking hand-off leaves ReadyAt alone. Any value in the past means the
// same, so a restored GPU whose matured head replies are handed back the old
// way (PopReply + UnpopReply) must resume to the statistics of the
// uninterrupted run.
func TestParentStyleSnapshotResumesIdentically(t *testing.T) {
	cfg := stateTestConfig(config.LLCShared)
	cfg.NumSMs, cfg.NumClusters, cfg.SchedulersPerSM = 8, 2, 2
	cfg.MCQueueDepth = 8
	spec, ok := workload.ByAbbr("LUD")
	if !ok {
		t.Fatal("unknown benchmark LUD")
	}
	spec.Kernels = stateKernels
	g, err := New(cfg, workload.MustNewGenerator(spec, cfg, stateSeed))
	if err != nil {
		t.Fatal(err)
	}
	g.Warmup(stateWarmup)
	var snaps []State
	cold := g.RunCheckpointed(stateMeasure, stateKernels, func(int) {
		st, err := g.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, st)
	})
	rewritten := 0
	for _, st := range snaps {
		resumed, err := Restore(cfg, workload.MustNewGenerator(spec, cfg, stateSeed), st)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range resumed.slices {
			if r, ok := s.PopReply(resumed.cycle); ok {
				s.UnpopReply(r) // the parent's hand-off: back at the head, ready at 0
				rewritten++
			}
		}
		requireSameStats(t, cold, resumed.ResumeRun(stateMeasure, stateKernels, nil))
	}
	if rewritten == 0 {
		t.Fatal("no snapshot held a matured reply: the test rewrote nothing")
	}
}
