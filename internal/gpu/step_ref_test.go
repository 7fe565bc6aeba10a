package gpu

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/trace"
	"repro/internal/workload"
)

// refStep is the cycle as the loop ran it before it kept active sets: every
// SM ticked outside a reconfiguration stall, every SM's request queue peeked,
// every slice ticked and asked for DRAM requests and replies, every cycle.
// It is the definition the active-set step must reproduce counter for
// counter and snapshot byte for snapshot byte.
func refStep(g *GPU) {
	stalled := g.reconfigActive || g.cycle < g.stallUntil
	if stalled {
		g.stallCycles++
	} else {
		for _, s := range g.sms {
			s.Tick(g.cycle, g.prog)
		}
	}
	if !g.reconfigActive {
		reqFlits, writeFlits := g.cfg.RequestFlits(), g.cfg.ReplyFlits()
		observe := g.ctrl != nil && g.mode == config.LLCShared
		for _, s := range g.sms {
			for req := s.PeekRequest(); req != nil; req = s.PeekRequest() {
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
					panic("refStep: request network refused a packet it had accepted")
				}
				if observe {
					g.ctrl.ObserveRequest(req.Addr, req.Cluster, loc.Channel, loc.Channel*g.cfg.LLCSlicesPerMC+loc.Slice)
				}
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
				panic("refStep: memory controller refused a request it had accepted")
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
		for s.HasReply(g.cycle) && g.repNet.Accepts(s.ID(), flits) {
			r, _ := s.PopReply(g.cycle)
			pkt := g.pktPool.Get()
			pkt.ID, pkt.Src, pkt.Dst, pkt.Flits, pkt.Reply = r.ReqID, s.ID(), r.SM, flits, r
			if !g.repNet.Inject(pkt) {
				panic("refStep: reply network refused a packet it had accepted")
			}
		}
	}
	for _, p := range g.repNet.Tick() {
		g.sms[p.Dst].CompleteLoad(p.Reply, g.cycle)
		g.pktPool.Put(p)
	}
	if g.reconfigActive {
		g.checkDrain()
	}
}

// refRun is RunCheckpointed with every cycle advanced by step: kernel
// boundaries, the adaptive controller and the sharing window as loopUntil
// runs them. A GPU stepped only by a reference step never freezes an SM in
// the active sets, so the settling in collect and SaveState does nothing.
func refRun(g *GPU, step func(*GPU), cycles uint64, kernels int, onBoundary func(m int)) RunStats {
	kernelLen := kernelLenFor(cycles, kernels)
	g.runStart = g.cycle
	g.sharerWindowEnd = g.cycle + sharingWindowCycles
	for end, nextKernel := g.cycle+cycles, g.cycle+kernelLen; g.cycle < end; {
		g.cycle++
		g.modeCycles[g.mode]++
		if g.mode == config.LLCPrivate && g.reqNet.Bypassed() {
			g.gatedCycles++
		}
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
		step(g)
		if g.ctrl != nil && !g.reconfigActive && g.cycle >= g.stallUntil {
			if d := g.ctrl.Tick(g.cycle); d != nil {
				g.scheduleReconfig(d)
			}
		} else if g.ctrl != nil {
			if d := g.ctrl.Tick(g.cycle); d != nil {
				g.pendingDecision = d
			}
		}
		if g.cycle >= g.sharerWindowEnd {
			g.collectSharing()
			g.sharerWindowEnd = g.cycle + sharingWindowCycles
		}
		if boundary > 0 && onBoundary != nil {
			onBoundary(boundary)
		}
	}
	return g.collect(cycles)
}

// atBoundary is what a run shows at one kernel boundary: its statistics so
// far and its snapshot's wire bytes.
type atBoundary struct {
	stats RunStats
	wire  []byte
}

// TestActiveSetsMatchVisitingEverything runs the full-size GPU through Run and
// through a refStep loop side by side — memory- and compute-bound static
// organizations, three adaptive runs whose 500-cycle profile windows make
// them reconfigure (a skip must never span a stall), a multi-program pair
// and a trace replay that outlives its trace (drained warps sleep 1<<20
// cycles, beyond the wake calendar) — and requires, at every kernel
// boundary, DeepEqual RunStats and equal snapshot bytes, and equal final
// statistics from a Run that no boundary hook settles.
func TestActiveSetsMatchVisitingEverything(t *testing.T) {
	warmup, measure := uint64(3_000), uint64(12_000)
	if testing.Short() {
		warmup, measure = 2_000, 6_000
	}
	generator := func(abbr string) func(t *testing.T, cfg config.Config) workload.Program {
		return func(t *testing.T, cfg config.Config) workload.Program {
			spec, ok := workload.ByAbbr(abbr)
			if !ok {
				t.Fatalf("unknown benchmark %s", abbr)
			}
			return workload.MustNewGenerator(spec, cfg, 11)
		}
	}
	pair := func(t *testing.T, cfg config.Config) workload.Program {
		a, _ := workload.ByAbbr("GEMM")
		b, _ := workload.ByAbbr("LUD")
		mp, err := workload.NewMultiProgram([]workload.Spec{a, b}, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}
	tracePath := filepath.Join(t.TempDir(), "lud.trace")
	replay := func(t *testing.T, cfg config.Config) workload.Program {
		p, err := trace.NewPlayer(tracePath, cfg, trace.EOFDrain)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	base := config.Baseline()
	with := func(mode config.LLCMode) config.Config {
		cfg := base
		cfg.LLCMode = mode
		cfg.ProfileWindowCycles = 500
		return cfg
	}
	recordTrace(t, tracePath, with(config.LLCShared), (warmup+measure)/2)

	for _, tc := range []struct {
		name     string
		cfg      config.Config
		kernels  int
		prog     func(*testing.T, config.Config) workload.Program
		appModes []config.LLCMode
	}{
		{"LUD-shared", with(config.LLCShared), 4, generator("LUD"), nil},
		{"MM-private", with(config.LLCPrivate), 2, generator("MM"), nil},
		{"AN-adaptive", with(config.LLCAdaptive), 6, generator("AN"), nil},
		{"BS-adaptive", with(config.LLCAdaptive), 4, generator("BS"), nil},
		{"LUD-adaptive", with(config.LLCAdaptive), 4, generator("LUD"), nil},
		{"GEMM+LUD-pair", with(config.LLCShared), 3, pair, []config.LLCMode{config.LLCShared, config.LLCPrivate}},
		{"LUD-replay", with(config.LLCShared), 4, replay, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *GPU {
				g, err := New(tc.cfg, tc.prog(t, tc.cfg))
				if err != nil {
					t.Fatal(err)
				}
				if tc.appModes != nil {
					if err := g.SetAppModes(tc.appModes); err != nil {
						t.Fatal(err)
					}
				}
				return g
			}
			record := func(g *GPU, into *[]atBoundary) func(int) {
				return func(int) {
					st, err := g.SaveState()
					if err != nil {
						t.Fatal(err)
					}
					*into = append(*into, atBoundary{g.collect(measure), st.AppendTo(nil)})
				}
			}

			var got, want []atBoundary
			fast := build()
			fast.Warmup(warmup)
			gotFinal := fast.RunCheckpointed(measure, tc.kernels, record(fast, &got))
			ref := build()
			refRun(ref, refStep, warmup, 1, nil)
			ref.resetMeasurement()
			wantFinal := refRun(ref, refStep, measure, tc.kernels, record(ref, &want))

			if len(got) == 0 || len(want) != len(got) {
				t.Fatalf("%d / %d boundaries (active sets / reference)", len(got), len(want))
			}
			for m := range got {
				if !reflect.DeepEqual(got[m].stats, want[m].stats) {
					t.Errorf("boundary %d: RunStats differ:\nactive sets: %+v\nreference:   %+v", m+1, got[m].stats, want[m].stats)
				}
				if !bytes.Equal(got[m].wire, want[m].wire) {
					t.Errorf("boundary %d: snapshot bytes differ (%d / %d bytes)", m+1, len(got[m].wire), len(want[m].wire))
				}
			}
			if !reflect.DeepEqual(gotFinal, wantFinal) {
				t.Errorf("final RunStats differ:\nactive sets: %+v\nreference:   %+v", gotFinal, wantFinal)
			}

			// Unsettled by any hook, frozen SMs carry their skipped ticks
			// from one kernel into the next.
			plain := build()
			plain.Warmup(warmup)
			ticks := plain.act.ticks
			final := plain.Run(measure, tc.kernels)
			if !reflect.DeepEqual(final, wantFinal) {
				t.Errorf("final RunStats of a Run without boundary hooks differ:\nactive sets: %+v\nreference:   %+v", final, wantFinal)
			}
			skipped := 1 - float64(plain.act.ticks-ticks)/float64(final.SM.Cycles)
			t.Logf("IPC %.1f, %d reconfigurations, %.1f%% of SM ticks skipped", final.IPC, final.ReconfigCount, 100*skipped)
			if tc.name != "MM-private" && skipped <= 0 {
				t.Error("no SM tick skipped: the run does not exercise frozen SMs")
			}
			if tc.cfg.LLCMode == config.LLCAdaptive && final.ReconfigCount == 0 {
				t.Error("the adaptive run never reconfigured: no skip met a stall")
			}
		})
	}
}

// recordTrace records the first `cycles` cycles of LUD on cfg to path.
func recordTrace(t *testing.T, path string, cfg config.Config, cycles uint64) {
	t.Helper()
	spec, _ := workload.ByAbbr("LUD")
	w, err := trace.Create(path, trace.HeaderFor(cfg, []string{"LUD"}, 11, spec.Kernels, cycles, 0))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(workload.MustNewGenerator(spec, cfg, 11), w)
	g, err := New(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(cycles, spec.Kernels)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}
