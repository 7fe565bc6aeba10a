package trace_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// -update regenerates testdata/golden.trace and testdata/golden_stats.json.
var update = flag.Bool("update", false, "regenerate the golden trace and its expected stats")

// tinyConfig shrinks the baseline GPU to a few SMs so trace tests run in
// milliseconds while still exercising every component.
func tinyConfig() config.Config {
	cfg := config.Baseline()
	cfg.NumSMs = 4
	cfg.NumClusters = 2
	cfg.MaxWarpsPerSM = 8
	cfg.MaxCTAsPerSM = 4
	cfg.SchedulersPerSM = 1
	cfg.NumMemControllers = 2
	cfg.LLCSlicesPerMC = 2
	cfg.LLCSliceBytes = 16 * 1024
	cfg.L1SizeBytes = 12 * 1024
	cfg.L1MSHRs = 8
	cfg.LLCMSHRsPerSlice = 8
	cfg.ProfileWindowCycles = 500
	return cfg
}

// unitHeader is a minimal 2x2 geometry for encoder/decoder unit tests.
func unitHeader() trace.Header {
	return trace.Header{NumSMs: 2, MaxWarpsPerSM: 2, NumClusters: 1, LLCLineBytes: 128}
}

// recorded is one (sm, warp, op) triple used to drive unit tests.
type recorded struct {
	sm, warp int
	op       workload.Op
	kernel   bool // a kernel marker instead of an op
}

func writeTrace(t *testing.T, hdr trace.Header, events []recorded) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, hdr)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, e := range events {
		if e.kernel {
			if err := w.WriteKernel(); err != nil {
				t.Fatalf("WriteKernel: %v", err)
			}
			continue
		}
		if err := w.WriteOp(e.sm, e.warp, e.op); err != nil {
			t.Fatalf("WriteOp: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func writeTraceFile(t *testing.T, hdr trace.Header, events []recorded) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "unit.trace")
	if err := os.WriteFile(path, writeTrace(t, hdr, events), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriterReaderRoundTrip(t *testing.T) {
	hdr := unitHeader()
	hdr.Workloads = []string{"MM"}
	hdr.Seed = 42
	hdr.Kernels = 2
	hdr.MeasureCycles = 1000
	hdr.WarmupCycles = 200
	events := []recorded{
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1000_0000}},
		{sm: 0, warp: 1, op: workload.Op{ALULatency: 4}},
		{sm: 1, warp: 0, op: workload.Op{IsMem: true, Write: true, Addr: 0x2_0000_0080}},
		{kernel: true},
		// Backwards delta on warp (0,0), large forward jump on (1,1).
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x0800_ff80}},
		{sm: 1, warp: 1, op: workload.Op{IsMem: true, Addr: 1 << 45}},
		{sm: 1, warp: 0, op: workload.Op{IsMem: true, Write: true, Addr: 0x2_0000_0000}},
		{kernel: true},
		{sm: 0, warp: 0, op: workload.Op{ALULatency: 1}},
	}
	data := writeTrace(t, hdr, events)

	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	got := r.Header()
	if got.NumSMs != hdr.NumSMs || got.MaxWarpsPerSM != hdr.MaxWarpsPerSM ||
		got.Seed != hdr.Seed || len(got.Workloads) != 1 || got.Workloads[0] != "MM" ||
		got.Kernels != 2 || got.MeasureCycles != 1000 || got.WarmupCycles != 200 {
		t.Fatalf("header round-trip mismatch: %+v", got)
	}
	for i, want := range events {
		ev, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if want.kernel {
			if ev.Kind != trace.EventKernel {
				t.Fatalf("event %d: got %+v, want kernel marker", i, ev)
			}
			continue
		}
		if ev.Kind != trace.EventOp || ev.SM != want.sm || ev.Warp != want.warp || ev.Op != want.op {
			t.Fatalf("event %d: got %+v, want sm=%d warp=%d op=%+v", i, ev, want.sm, want.warp, want.op)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last event: err = %v, want io.EOF", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("repeated Next after EOF: err = %v, want io.EOF", err)
	}
}

func TestWriterRejectsOutOfGeometryOps(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, unitHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteOp(2, 0, workload.Op{ALULatency: 1}); err == nil {
		t.Error("op outside the recorded geometry must be rejected")
	}
	if w.Err() == nil {
		t.Error("geometry violation must stick as the writer error")
	}
}

func TestHeaderValidation(t *testing.T) {
	bad := []trace.Header{
		{NumSMs: 0, MaxWarpsPerSM: 1, LLCLineBytes: 128},
		{NumSMs: 1, MaxWarpsPerSM: 0, LLCLineBytes: 128},
		{NumSMs: 1, MaxWarpsPerSM: 1, LLCLineBytes: 0},
		{NumSMs: 2, MaxWarpsPerSM: 1, LLCLineBytes: 128, SMApp: []int{0}},
	}
	for i, hdr := range bad {
		if _, err := trace.NewWriter(&bytes.Buffer{}, hdr); err == nil {
			t.Errorf("case %d: invalid header accepted", i)
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := trace.NewReader(bytes.NewReader([]byte("not a trace at all"))); !errors.Is(err, trace.ErrBadMagic) {
		t.Errorf("garbage input: err = %v, want ErrBadMagic", err)
	}
	// A valid trace with the version byte bumped must be refused.
	data := writeTrace(t, unitHeader(), nil)
	data[7]++
	if _, err := trace.NewReader(bytes.NewReader(data)); !errors.Is(err, trace.ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
}

func TestReaderReportsTruncation(t *testing.T) {
	events := []recorded{
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1000}},
		{sm: 0, warp: 1, op: workload.Op{ALULatency: 2}},
	}
	data := writeTrace(t, unitHeader(), events)
	// Cutting the gzip stream mid-way (well past the 8-byte gzip footer, so
	// actual deflate data is lost) must surface an error, not silent EOF.
	r, err := trace.NewReader(bytes.NewReader(data[:len(data)-20]))
	if err == nil {
		for {
			if _, err = r.Next(); err != nil {
				break
			}
		}
	}
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated trace: err = %v, want a decode error", err)
	}
}

func TestRecorderTransparencyAndCapture(t *testing.T) {
	cfg := tinyConfig()
	spec, _ := workload.ByAbbr("MM")
	seed := int64(11)
	// A twin generator with the same seed predicts what the wrapped
	// generator must hand out: the recorder has to be a transparent proxy.
	twin := workload.MustNewGenerator(spec, cfg, seed)
	inner := workload.MustNewGenerator(spec, cfg, seed)

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.HeaderFor(cfg, []string{"MM"}, seed, 1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(inner, w)

	type call struct{ sm, warp int }
	var calls []call
	var want []workload.Op
	for round := 0; round < 50; round++ {
		for sm := 0; sm < cfg.NumSMs; sm++ {
			c := call{sm, (round + sm) % cfg.MaxWarpsPerSM}
			calls = append(calls, c)
			wantOp := twin.NextOp(c.sm, c.warp)
			want = append(want, wantOp)
			if got := rec.NextOp(c.sm, c.warp); got != wantOp {
				t.Fatalf("call %d: recorder returned %+v, generator twin %+v", len(calls)-1, got, wantOp)
			}
		}
		if round == 25 {
			twin.NextKernel()
			rec.NextKernel()
			if rec.Kernel() != twin.Kernel() {
				t.Fatalf("Kernel() = %d, twin %d", rec.Kernel(), twin.Kernel())
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}

	// The captured trace must decode to the recorded sequence.
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == trace.EventKernel {
			continue
		}
		if ev.Op != want[idx] || ev.SM != calls[idx].sm || ev.Warp != calls[idx].warp {
			t.Fatalf("decoded event %d = %+v, want %+v at (%d,%d)",
				idx, ev, want[idx], calls[idx].sm, calls[idx].warp)
		}
		idx++
	}
	if idx != len(want) {
		t.Fatalf("decoded %d ops, recorded %d", idx, len(want))
	}
}

func TestPlayerAlignedReplay(t *testing.T) {
	events := []recorded{
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1000}},
		{sm: 0, warp: 1, op: workload.Op{ALULatency: 4}},
		{sm: 1, warp: 0, op: workload.Op{IsMem: true, Write: true, Addr: 0x2000}},
		{kernel: true},
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1080}},
		{sm: 1, warp: 1, op: workload.Op{IsMem: true, Addr: 0x500}},
	}
	path := writeTraceFile(t, unitHeader(), events)
	cfg := config.Config{NumSMs: 2, MaxWarpsPerSM: 2}
	p, err := trace.NewPlayer(path, cfg, trace.EOFDrain)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if got := p.NextOp(0, 0); got != events[0].op {
		t.Fatalf("op 0 = %+v, want %+v", got, events[0].op)
	}
	if got := p.NextOp(0, 1); got != events[1].op {
		t.Fatalf("op 1 = %+v, want %+v", got, events[1].op)
	}
	if got := p.NextOp(1, 0); got != events[2].op {
		t.Fatalf("op 2 = %+v, want %+v", got, events[2].op)
	}
	p.NextKernel()
	if p.Kernel() != 1 {
		t.Fatalf("Kernel() = %d, want 1", p.Kernel())
	}
	if got := p.NextOp(0, 0); got != events[4].op {
		t.Fatalf("post-kernel op = %+v, want %+v", got, events[4].op)
	}
	if got := p.NextOp(1, 1); got != events[5].op {
		t.Fatalf("post-kernel op = %+v, want %+v", got, events[5].op)
	}
	// Exhausted: drain policy parks the warp with long-latency no-ops.
	got := p.NextOp(0, 0)
	if got.IsMem || got.ALULatency < 1<<16 {
		t.Fatalf("drained op = %+v, want a long-latency no-op", got)
	}
	if p.DrainOps() == 0 {
		t.Error("DrainOps must count post-exhaustion no-ops")
	}
	if p.Err() != nil {
		t.Errorf("Err() = %v, want nil", p.Err())
	}
}

func TestPlayerRemapFolding(t *testing.T) {
	// Four recorded streams with distinct addresses.
	events := []recorded{
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0xA000}},
		{sm: 0, warp: 1, op: workload.Op{IsMem: true, Addr: 0xB000}},
		{sm: 1, warp: 0, op: workload.Op{IsMem: true, Addr: 0xC000}},
		{sm: 1, warp: 1, op: workload.Op{IsMem: true, Addr: 0xD000}},
	}
	path := writeTraceFile(t, unitHeader(), events)

	// Replay on half the geometry: streams fold pairwise onto 2 queues in
	// stream order; every recorded op is still served exactly once.
	p, err := trace.NewPlayer(path, config.Config{NumSMs: 1, MaxWarpsPerSM: 2}, trace.EOFDrain)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := map[uint64]bool{}
	for _, c := range []struct{ sm, w int }{{0, 0}, {0, 1}, {0, 0}, {0, 1}} {
		op := p.NextOp(c.sm, c.w)
		if !op.IsMem {
			t.Fatalf("folded replay produced a non-mem op early: %+v", op)
		}
		got[op.Addr] = true
	}
	for _, e := range events {
		if !got[e.op.Addr] {
			t.Errorf("folded replay never served addr %#x", e.op.Addr)
		}
	}

	// Replay on a larger geometry: extra warps share the recorded streams.
	p2, err := trace.NewPlayer(path, config.Config{NumSMs: 4, MaxWarpsPerSM: 4}, trace.EOFDrain)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if op := p2.NextOp(0, 0); !op.IsMem || op.Addr != 0xA000 {
		t.Fatalf("enlarged replay op = %+v, want load of 0xA000", op)
	}
	if op := p2.NextOp(3, 1); !op.IsMem {
		t.Fatalf("warp outside recorded geometry got %+v, want a folded mem op", op)
	}
}

func TestPlayerEOFLoop(t *testing.T) {
	hdr := trace.Header{NumSMs: 1, MaxWarpsPerSM: 1, NumClusters: 1, LLCLineBytes: 128}
	events := []recorded{
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1000}},
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1080}},
	}
	path := writeTraceFile(t, hdr, events)
	p, err := trace.NewPlayer(path, config.Config{NumSMs: 1, MaxWarpsPerSM: 1}, trace.EOFLoop)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want := []uint64{0x1000, 0x1080, 0x1000, 0x1080, 0x1000}
	for i, addr := range want {
		op := p.NextOp(0, 0)
		if !op.IsMem || op.Addr != addr {
			t.Fatalf("loop op %d = %+v, want load of %#x", i, op, addr)
		}
	}
	if p.Loops() != 2 {
		t.Errorf("Loops() = %d, want 2", p.Loops())
	}
	if p.DrainOps() != 0 {
		t.Errorf("DrainOps() = %d, want 0 under loop policy", p.DrainOps())
	}
}

// TestPlayerEOFLoopInactiveWarp guards against a hang: real recordings
// leave warp slots with zero recorded ops, and under EOFLoop a NextOp for
// such a slot must park the warp (drain op) instead of rewinding the trace
// forever without returning.
func TestPlayerEOFLoopInactiveWarp(t *testing.T) {
	hdr := trace.Header{NumSMs: 1, MaxWarpsPerSM: 2, NumClusters: 1, LLCLineBytes: 128}
	events := []recorded{ // only warp 0 ever issues
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1000}},
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1080}},
	}
	path := writeTraceFile(t, hdr, events)
	p, err := trace.NewPlayer(path, config.Config{NumSMs: 1, MaxWarpsPerSM: 2}, trace.EOFLoop)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	done := make(chan workload.Op, 1)
	go func() { done <- p.NextOp(0, 1) }()
	select {
	case op := <-done:
		if op.IsMem || op.ALULatency < 1<<16 {
			t.Fatalf("inactive warp got %+v, want a park no-op", op)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NextOp for an inactive warp slot hung under EOFLoop")
	}
	// The active warp must still loop normally afterwards.
	for i, addr := range []uint64{0x1000, 0x1080, 0x1000} {
		if op := p.NextOp(0, 0); !op.IsMem || op.Addr != addr {
			t.Fatalf("active-warp loop op %d = %+v, want load of %#x", i, op, addr)
		}
	}
}

func TestPlayerSetAppRelocatesAddresses(t *testing.T) {
	hdr := trace.Header{NumSMs: 1, MaxWarpsPerSM: 1, NumClusters: 1, LLCLineBytes: 128}
	events := []recorded{{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1000}}}
	path := writeTraceFile(t, hdr, events)
	p, err := trace.NewPlayer(path, config.Config{NumSMs: 1, MaxWarpsPerSM: 1}, trace.EOFDrain)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetApp(3)
	if op := p.NextOp(0, 0); op.Addr != 0x1000+uint64(3)<<40 {
		t.Fatalf("relocated addr = %#x, want %#x", op.Addr, 0x1000+uint64(3)<<40)
	}
}

// TestRecordReplayDeterminism is the acceptance criterion of the trace
// subsystem: recording a run and replaying its trace under the same
// configuration yields identical RunStats.
func TestRecordReplayDeterminism(t *testing.T) {
	for _, mode := range []config.LLCMode{config.LLCShared, config.LLCAdaptive} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.LLCMode = mode
			spec, _ := workload.ByAbbr("MM")
			path := filepath.Join(t.TempDir(), "mm.trace")

			recorded, err := sweep.Execute(sweep.RunSpec{
				Key: "record", Workloads: []workload.Spec{spec}, Config: cfg,
				Seed: 3, MeasureCycles: 4000, WarmupCycles: 1000, RecordPath: path,
			})
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := sweep.Execute(sweep.RunSpec{
				Key: "replay", TracePath: path, Config: cfg,
				MeasureCycles: 4000, WarmupCycles: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			compareRunStats(t, recorded, replayed)
		})
	}
}

// compareRunStats checks the statistics the acceptance criterion names
// (cycles, IPC, LLC miss rate) plus the underlying counters, exactly.
func compareRunStats(t *testing.T, a, b gpu.RunStats) {
	t.Helper()
	check := func(name string, va, vb any) {
		if va != vb {
			t.Errorf("%s: recorded %v, replayed %v", name, va, vb)
		}
	}
	check("Cycles", a.Cycles, b.Cycles)
	check("Instructions", a.Instructions, b.Instructions)
	check("IPC", a.IPC, b.IPC)
	check("L1MissRate", a.L1MissRate, b.L1MissRate)
	check("LLCMissRate", a.LLCMissRate, b.LLCMissRate)
	check("LLC.Accesses", a.LLC.Accesses, b.LLC.Accesses)
	check("LLC.Misses", a.LLC.Misses, b.LLC.Misses)
	check("LLCResponseFlits", a.LLCResponseFlits, b.LLCResponseFlits)
	check("DRAMAccesses", a.DRAMAccesses, b.DRAMAccesses)
	check("SM.Loads", a.SM.Loads, b.SM.Loads)
	check("SM.Stores", a.SM.Stores, b.SM.Stores)
	check("FinalMode", a.FinalMode, b.FinalMode)
	check("ReconfigCount", a.ReconfigCount, b.ReconfigCount)
}

// goldenStats is the serialized form of the golden trace's expected replay
// statistics (testdata/golden_stats.json).
type goldenStats struct {
	Cycles           uint64  `json:"cycles"`
	Instructions     uint64  `json:"instructions"`
	IPC              float64 `json:"ipc"`
	L1MissRate       float64 `json:"l1_miss_rate"`
	LLCMissRate      float64 `json:"llc_miss_rate"`
	LLCAccesses      uint64  `json:"llc_accesses"`
	LLCMisses        uint64  `json:"llc_misses"`
	LLCResponseFlits uint64  `json:"llc_response_flits"`
	DRAMAccesses     uint64  `json:"dram_accesses"`
}

func goldenFromRunStats(s gpu.RunStats) goldenStats {
	return goldenStats{
		Cycles:           s.Cycles,
		Instructions:     s.Instructions,
		IPC:              s.IPC,
		L1MissRate:       s.L1MissRate,
		LLCMissRate:      s.LLCMissRate,
		LLCAccesses:      s.LLC.Accesses,
		LLCMisses:        s.LLC.Misses,
		LLCResponseFlits: s.LLCResponseFlits,
		DRAMAccesses:     s.DRAMAccesses,
	}
}

const (
	goldenMeasure = 1500
	goldenWarmup  = 500
	goldenSeed    = 7
)

func goldenSpec() workload.Spec {
	spec, ok := workload.ByAbbr("MM")
	if !ok {
		panic("MM missing from catalog")
	}
	return spec
}

// TestGoldenTraceReplay replays the checked-in golden trace and requires
// exact agreement with the checked-in statistics: any byte-level format
// change, decoder change or simulator behaviour change that affects replay
// shows up here. Regenerate both files with `go test ./internal/trace
// -run TestGoldenTraceReplay -update` after an intentional change.
func TestGoldenTraceReplay(t *testing.T) {
	tracePath := filepath.Join("testdata", "golden.trace")
	statsPath := filepath.Join("testdata", "golden_stats.json")
	cfg := tinyConfig()

	if *update {
		if _, err := sweep.Execute(sweep.RunSpec{
			Key: "golden-record", Workloads: []workload.Spec{goldenSpec()}, Config: cfg,
			Seed: goldenSeed, MeasureCycles: goldenMeasure, WarmupCycles: goldenWarmup,
			RecordPath: tracePath,
		}); err != nil {
			t.Fatalf("regenerating golden trace: %v", err)
		}
	}

	stats, err := sweep.Execute(sweep.RunSpec{
		Key: "golden-replay", TracePath: tracePath, Config: cfg,
		MeasureCycles: goldenMeasure, WarmupCycles: goldenWarmup,
	})
	if err != nil {
		t.Fatalf("replaying golden trace: %v", err)
	}
	got := goldenFromRunStats(stats)

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("reading golden stats (run with -update to create): %v", err)
	}
	var want goldenStats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("golden replay drifted:\n got  %+v\n want %+v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	hdr := unitHeader()
	events := []recorded{
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1000}},
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1000}}, // same line again
		{sm: 0, warp: 1, op: workload.Op{ALULatency: 4}},
		{kernel: true},
		{sm: 1, warp: 0, op: workload.Op{IsMem: true, Write: true, Addr: 0x2000}},
	}
	path := writeTraceFile(t, hdr, events)
	sum, err := trace.Summarize(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Counts.Ops != 4 || sum.Counts.Loads != 2 || sum.Counts.Stores != 1 || sum.Counts.Kernels != 1 {
		t.Errorf("counts = %+v", sum.Counts)
	}
	if sum.UniqueLines != 2 || sum.FootprintBytes != 2*128 {
		t.Errorf("footprint = %d lines / %d bytes, want 2 / 256", sum.UniqueLines, sum.FootprintBytes)
	}
	if sum.ReuseHistogram != [4]uint64{1, 1, 0, 0} {
		t.Errorf("reuse histogram = %v, want [1 1 0 0]", sum.ReuseHistogram)
	}
	if sum.ActiveWarps != 3 {
		t.Errorf("ActiveWarps = %d, want 3", sum.ActiveWarps)
	}
	if sum.MinAddr != 0x1000 || sum.MaxAddr != 0x2000 {
		t.Errorf("addr range = [%#x, %#x]", sum.MinAddr, sum.MaxAddr)
	}
	if sum.Format() == "" {
		t.Error("Format() must render something")
	}
}

func TestDiff(t *testing.T) {
	hdr := unitHeader()
	base := []recorded{
		{sm: 0, warp: 0, op: workload.Op{IsMem: true, Addr: 0x1000}},
		{kernel: true},
		{sm: 0, warp: 1, op: workload.Op{ALULatency: 4}},
	}
	a := writeTraceFile(t, hdr, base)

	t.Run("identical", func(t *testing.T) {
		b := writeTraceFile(t, hdr, base)
		d, err := trace.Diff(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Equal || d.EventsCompared != 3 {
			t.Errorf("diff of identical traces = %+v", d)
		}
	})

	t.Run("divergent-event", func(t *testing.T) {
		mut := append([]recorded(nil), base...)
		mut[2] = recorded{sm: 0, warp: 1, op: workload.Op{ALULatency: 9}}
		b := writeTraceFile(t, hdr, mut)
		d, err := trace.Diff(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d.Equal || d.EventsCompared != 2 || d.Divergence == "" {
			t.Errorf("diff of divergent traces = %+v", d)
		}
	})

	t.Run("different-length", func(t *testing.T) {
		b := writeTraceFile(t, hdr, base[:2])
		d, err := trace.Diff(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d.Equal || d.EventsA != 3 || d.EventsB != 2 {
			t.Errorf("diff of different-length traces = %+v", d)
		}
	})

	t.Run("truncated-operand", func(t *testing.T) {
		// A truncated trace must surface its decode error, not be reported
		// as merely "shorter".
		data := writeTrace(t, hdr, base)
		cut := filepath.Join(t.TempDir(), "cut.trace")
		if err := os.WriteFile(cut, data[:len(data)-20], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Diff(a, cut); err == nil {
			t.Error("diff against a truncated trace must report the decode error")
		}
	})

	t.Run("different-header", func(t *testing.T) {
		hdr2 := hdr
		hdr2.Seed = 99
		b := writeTraceFile(t, hdr2, base)
		d, err := trace.Diff(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d.Equal || len(d.HeaderDiffs) == 0 {
			t.Errorf("diff with different headers = %+v", d)
		}
	})
}

// TestMixedMultiProgram co-executes a synthetic generator with a trace
// player on one GPU: the trace-mixing axis of multi-program mode.
func TestMixedMultiProgram(t *testing.T) {
	cfg := tinyConfig()
	spec, _ := workload.ByAbbr("VA")
	path := filepath.Join(t.TempDir(), "va.trace")
	if _, err := sweep.Execute(sweep.RunSpec{
		Key: "record", Workloads: []workload.Spec{spec}, Config: cfg,
		Seed: 2, MeasureCycles: 2000, WarmupCycles: 500, RecordPath: path,
	}); err != nil {
		t.Fatal(err)
	}

	gemm, _ := workload.ByAbbr("GEMM")
	gen := workload.MustNewGenerator(gemm, cfg, 5)
	player, err := trace.NewPlayer(path, cfg, trace.EOFLoop)
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	mp, err := workload.NewMultiProgramMixed([]workload.Program{gen, player}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	g, err := gpu.New(cfg, mp)
	if err != nil {
		t.Fatal(err)
	}
	stats := g.Run(3000, 1)
	if len(stats.AppInstructions) != 2 {
		t.Fatalf("AppInstructions = %v, want 2 apps", stats.AppInstructions)
	}
	for app, instr := range stats.AppInstructions {
		if instr == 0 {
			t.Errorf("app %d issued no instructions", app)
		}
	}
	// The player's addresses were relocated into app 1's address space, so
	// the two programs must not have collided in the LLC: total accesses are
	// nonzero and the run completed deterministically.
	if stats.LLC.Accesses == 0 {
		t.Error("mixed run produced no LLC traffic")
	}
}

// TestSweepTraceValidation covers the mutual-exclusion and error paths of
// the RunSpec trace fields.
func TestSweepTraceValidation(t *testing.T) {
	cfg := tinyConfig()
	spec, _ := workload.ByAbbr("VA")
	if _, err := sweep.Execute(sweep.RunSpec{
		Key: "both", Workloads: []workload.Spec{spec}, TracePath: "x.trace", Config: cfg,
		MeasureCycles: 100,
	}); err == nil {
		t.Error("TracePath plus Workloads must be rejected")
	}
	if _, err := sweep.Execute(sweep.RunSpec{
		Key: "missing", TracePath: filepath.Join(t.TempDir(), "nope.trace"), Config: cfg,
		MeasureCycles: 100,
	}); err == nil {
		t.Error("missing trace file must be reported")
	}
}

// TestFailedRecordedRunLeavesNoTrace checks that a run that fails after the
// trace file was created removes it: a truncated-but-valid empty trace
// would otherwise replay as a silently bogus workload.
func TestFailedRecordedRunLeavesNoTrace(t *testing.T) {
	cfg := tinyConfig()
	spec, _ := workload.ByAbbr("VA")
	path := filepath.Join(t.TempDir(), "failed.trace")
	_, err := sweep.Execute(sweep.RunSpec{
		Key: "bad-appmodes", Workloads: []workload.Spec{spec}, Config: cfg,
		// One workload but two app modes: SetAppModes fails after the
		// recorder is in place.
		AppModes:      []config.LLCMode{config.LLCShared, config.LLCPrivate},
		MeasureCycles: 100, RecordPath: path,
	})
	if err == nil {
		t.Fatal("mismatched AppModes must fail the run")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Errorf("failed recorded run left %s behind (stat err: %v)", path, statErr)
	}
}

// TestReRecordPreservesAppAssignment replays a multi-program trace while
// re-recording it and checks the new trace keeps the SM-to-application
// assignment (the Player, not just MultiProgram, must feed the header).
func TestReRecordPreservesAppAssignment(t *testing.T) {
	cfg := tinyConfig()
	gemm, _ := workload.ByAbbr("GEMM")
	mm, _ := workload.ByAbbr("MM")
	dir := t.TempDir()
	first := filepath.Join(dir, "first.trace")
	second := filepath.Join(dir, "second.trace")

	if _, err := sweep.Execute(sweep.RunSpec{
		Key: "record", Workloads: []workload.Spec{gemm, mm}, Config: cfg,
		Seed: 1, MeasureCycles: 1500, WarmupCycles: 0, RecordPath: first,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Execute(sweep.RunSpec{
		Key: "re-record", TracePath: first, Config: cfg,
		MeasureCycles: 1500, WarmupCycles: 0, RecordPath: second,
	}); err != nil {
		t.Fatal(err)
	}
	r, err := trace.Open(second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hdr := r.Header()
	if hdr.Apps != 2 {
		t.Errorf("re-recorded header Apps = %d, want 2", hdr.Apps)
	}
	if len(hdr.SMApp) != cfg.NumSMs {
		t.Errorf("re-recorded header SMApp has %d entries, want %d", len(hdr.SMApp), cfg.NumSMs)
	}
}

// TestHeaderCarriesAdaptiveTiming checks that recordings preserve the
// adaptive controller's timing, so a bare `tracetool replay` reproduces an
// adaptive recording's reconfiguration decisions.
func TestHeaderCarriesAdaptiveTiming(t *testing.T) {
	cfg := tinyConfig()
	cfg.LLCMode = config.LLCAdaptive
	cfg.ProfileWindowCycles = 777
	cfg.EpochCycles = 55_555
	spec, _ := workload.ByAbbr("VA")
	path := filepath.Join(t.TempDir(), "adaptive.trace")
	if _, err := sweep.Execute(sweep.RunSpec{
		Key: "record", Workloads: []workload.Spec{spec}, Config: cfg,
		Seed: 1, MeasureCycles: 2000, WarmupCycles: 0, RecordPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	r, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hdr := r.Header()
	if hdr.ProfileWindowCycles != 777 || hdr.EpochCycles != 55_555 {
		t.Errorf("header timing = %d/%d, want 777/55555",
			hdr.ProfileWindowCycles, hdr.EpochCycles)
	}
	if hdr.LLCMode != "adaptive" {
		t.Errorf("header LLCMode = %q, want adaptive", hdr.LLCMode)
	}
}

// TestReplayUsesHeaderKernels checks that a trace recorded with kernel
// boundaries replays with the recorded kernel count when RunSpec.Kernels is
// zero: the kernel boundary cycles must match the recording exactly.
func TestReplayUsesHeaderKernels(t *testing.T) {
	cfg := tinyConfig()
	spec, _ := workload.ByAbbr("MM") // Kernels: 2
	path := filepath.Join(t.TempDir(), "mm.trace")
	recorded, err := sweep.Execute(sweep.RunSpec{
		Key: "record", Workloads: []workload.Spec{spec}, Config: cfg,
		Seed: 3, MeasureCycles: 3000, WarmupCycles: 500, RecordPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := sweep.Execute(sweep.RunSpec{
		Key: "replay", TracePath: path, Config: cfg,
		MeasureCycles: 3000, WarmupCycles: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.KernelBoundaries) == 0 {
		t.Fatal("recording produced no kernel boundaries; test needs a multi-kernel workload")
	}
	if len(replayed.KernelBoundaries) != len(recorded.KernelBoundaries) {
		t.Fatalf("replay split into %d kernels, recording %d",
			len(replayed.KernelBoundaries)+1, len(recorded.KernelBoundaries)+1)
	}
	for i := range recorded.KernelBoundaries {
		if recorded.KernelBoundaries[i] != replayed.KernelBoundaries[i] {
			t.Errorf("kernel boundary %d: recorded cycle %d, replayed %d",
				i, recorded.KernelBoundaries[i], replayed.KernelBoundaries[i])
		}
	}
}
