package gpu

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestSteadyStateCycleAllocs is the allocation-regression gate for the
// per-cycle hot path: after warm-up (caches populated, ring buffers and
// free-list pools grown to their steady-state depth), advancing the
// simulation must not allocate. Every queue push/pop, memory request, NoC
// packet, MSHR entry and DRAM transaction is recycled; a regression here
// means a per-cycle allocation crept back in. LUD is the memory-saturated
// case, where SMs freeze and thaw and the active sets flip every cycle.
func TestSteadyStateCycleAllocs(t *testing.T) {
	for _, abbr := range []string{"MM", "GEMM", "LUD"} { // private-friendly, shared-friendly, memory-bound traffic
		t.Run(abbr, func(t *testing.T) {
			spec, ok := workload.ByAbbr(abbr)
			if !ok {
				t.Fatalf("unknown benchmark %s", abbr)
			}
			cfg := config.Baseline()
			gen, err := workload.NewGenerator(spec, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			g, err := New(cfg, gen)
			if err != nil {
				t.Fatal(err)
			}
			// Long enough to populate the caches, reach the steady-state
			// in-flight request population, and grow every ring buffer, MSHR
			// merge list and pool to its high-water mark (merge depths keep
			// setting new highs for a while, so this is deliberately longer
			// than the caches alone need).
			g.Warmup(30_000)
			requireAllocFreeLoop(t, g, "steady-state cycle loop")

		})
	}
}

// TestEarlyRunMergeListAllocs gates the transient before the steady state:
// on a lockstep workload the L1 MSHR merge lists keep finding new depths for
// tens of thousands of cycles, and while they grew by doubling, MM on the
// private LLC allocated ~60 times per thousand cycles between cycle 8k and
// 40k — the window short sweep runs spend their whole life in. With merge
// lists sized once for the SM's merge bound it stays under 10.
func TestEarlyRunMergeListAllocs(t *testing.T) {
	spec, ok := workload.ByAbbr("MM")
	if !ok {
		t.Fatal("unknown benchmark MM")
	}
	cfg := config.Baseline()
	cfg.LLCMode = config.LLCPrivate
	gen, err := workload.NewGenerator(spec, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	g.Warmup(8_000)
	// 32 kernels of 1 000 cycles: every boundary moves the lockstep frontier
	// to fresh lines, which is what keeps setting new merge depths.
	const kcycles = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.advance(kcycles*1000, kcycles)
	runtime.ReadMemStats(&after)
	if perK := float64(after.Mallocs-before.Mallocs) / kcycles; perK > 10 {
		t.Errorf("MM/private allocates %.1f times per 1000 cycles between cycle 8k and 40k, want < 10", perK)
	}
}

// TestPostRestoreCycleAllocs gates the checkpoint-resume allocation path: a
// GPU restored from a snapshot must re-reach the same allocation behaviour
// as a cold GPU at the same cycle. The comparison is exact because the
// simulator is deterministic: a cold control GPU and a save->restore GPU
// advance through byte-identical states, so after the restored one has
// re-grown its rings and free lists to the snapshot's population high-water
// mark (a bounded, one-time cost), any remaining per-window allocation
// excess is a restore regression — e.g. the restore path newing requests or
// packets instead of drawing them from the pools.
func TestPostRestoreCycleAllocs(t *testing.T) {
	spec, ok := workload.ByAbbr("MM")
	if !ok {
		t.Fatal("unknown benchmark MM")
	}
	cfg := config.Baseline()
	newGPU := func() *GPU {
		gen, err := workload.NewGenerator(spec, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	control := newGPU()
	control.Warmup(30_000)
	snapshotted := newGPU()
	snapshotted.Warmup(30_000)
	st, err := snapshotted.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := workload.NewGenerator(spec, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(cfg, gen2, st)
	if err != nil {
		t.Fatal(err)
	}

	// Re-warm: the restored instance regrows pools, rings and MSHR merge
	// lists to the traffic's high-water marks once (a cost the cold control
	// paid during its warmup); the control advances through the same cycles
	// so the measurement windows below cover the identical simulated region.
	const rewarm = 20_000
	restored.advance(rewarm, 1)
	control.advance(rewarm, 1)

	const cyclesPerRun = 500
	coldAvg := testing.AllocsPerRun(10, func() { control.advance(cyclesPerRun, 1) })
	resumedAvg := testing.AllocsPerRun(10, func() { restored.advance(cyclesPerRun, 1) })
	// Identical windows should allocate near-identically; the slack absorbs
	// the last stragglers of one-off capacity regrowth (free-list chunks,
	// deep merge lists), which decay over tens of thousands of cycles. A
	// restore path that news objects per queued request shows up as
	// hundreds per run and the pre-fix exact-capacity MSHR restore as ~13.
	if resumedAvg > coldAvg+10 {
		t.Errorf("post-restore loop allocates %.1f per %d-cycle run, cold control %.1f: restore is not reusing pooled objects",
			resumedAvg, cyclesPerRun, coldAvg)
	}
}

func requireAllocFreeLoop(t *testing.T, g *GPU, what string) {
	t.Helper()
	const cyclesPerRun = 500
	avg := testing.AllocsPerRun(10, func() {
		g.advance(cyclesPerRun, 1)
	})
	perCycle := avg / cyclesPerRun
	// A strict 0 would be flaky against one-off high-water-mark
	// growth (e.g. a queue exceeding its warmed depth once); 0.01
	// allocations/cycle still catches any real per-cycle or
	// per-request allocation, which shows up as >= O(0.1)/cycle.
	if perCycle > 0.01 {
		t.Errorf("%s allocates %.4f times per cycle (%.1f per %d-cycle run), want ~0",
			what, perCycle, avg, cyclesPerRun)
	}
}

// TestNewAllocBudget pins what building one baseline GPU allocates. The
// parent of the dense tag rows took 4,607 KB; with 32 bytes a cache line
// instead of 40 it is 3,613 KB, and the budget sits close above that, so a
// second per-line array kept beside the first (8 bytes a line over 80 L1s and
// 64 LLC slices is 640 KB) cannot come back unnoticed.
func TestNewAllocBudget(t *testing.T) {
	const budget = 3_700_000
	spec, _ := workload.ByAbbr("MM")
	cfg := config.Baseline()
	gen, err := workload.NewGenerator(spec, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// TotalAlloc is process-wide: park the collector, whose workers allocate,
	// and take the quietest of three builds.
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := New(cfg, gen)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(g)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > budget {
		t.Errorf("gpu.New(config.Baseline()) allocated %d bytes, budget %d", least, budget)
	}
}

// advance opens a run of `cycles` cycles split into `kernels` invocations and
// simulates it, collecting nothing: Warmup without the statistics reset.
func (g *GPU) advance(cycles uint64, kernels int) {
	g.openRun()
	g.loopUntil(cycles, kernels, nil)
}
