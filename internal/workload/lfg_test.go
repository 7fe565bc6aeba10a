package workload

import (
	"math/rand"
	"testing"

	"repro/internal/config"
)

// TestLFGMatchesMathRand holds the in-package source against math/rand draw
// for draw: the generator's statistics (and every golden fingerprint) depend
// on the two producing the same stream.
func TestLFGMatchesMathRand(t *testing.T) {
	spec, _ := ByAbbr("LUD")
	bounds := []int64{
		1, 2, 4, 1 << 20, 1 << 62, // powers of two: masked
		3, 4 + 1, 1000003, 1<<62 + 1, // not: rejection sampling
		int64(spec.FrontierJitterLines + 1),
		int64(spec.SharedLines(config.Baseline().LLCLineBytes)),
	}
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		var got lfg
		got.seed(seed)
		for i := 0; i < 120_000; i++ {
			if i%3 == 0 {
				if w, g := want.Float64(), got.float64(); w != g {
					t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, g, w)
				}
				continue
			}
			n := bounds[i%len(bounds)]
			if w, g := want.Int63n(n), got.below(newModulus(n)); w != g {
				t.Fatalf("seed %d draw %d: Int63n(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		}
		if got.draws < 120_000 {
			t.Errorf("seed %d: stream position %d after 120000 calls", seed, got.draws)
		}
	}
}

func TestLFGRestoreRejectsMalformedState(t *testing.T) {
	var r lfg
	r.seed(1)
	good := append([]uint64(nil), r.vec[:]...)
	for name, bad := range map[string]func() error{
		"short vector":   func() error { return r.restore(good[:10], r.tap, r.feed, 0) },
		"tap range":      func() error { return r.restore(good, lfgLen, r.feed, 0) },
		"negative tap":   func() error { return r.restore(good, -1, r.feed, 0) },
		"feed off phase": func() error { return r.restore(good, r.tap, r.tap, 0) },
	} {
		if bad() == nil {
			t.Errorf("%s: restore accepted a malformed state", name)
		}
	}
	if err := r.restore(good, r.tap, r.feed, 7); err != nil || r.draws != 7 {
		t.Errorf("restore of a well-formed state: err %v, draws %d", err, r.draws)
	}
}

// TestGeneratorRestoreMidKernel snapshots a generator in the middle of a
// kernel (after a kernel boundary, so jitter re-draws are behind it) and
// requires a fresh generator restored from the snapshot to continue op for
// op, through a further boundary.
func TestGeneratorRestoreMidKernel(t *testing.T) {
	cfg := config.Baseline()
	for _, abbr := range []string{"MM", "LUD", "VA"} {
		spec, _ := ByAbbr(abbr)
		orig := MustNewGenerator(spec, cfg, 5)
		drive := func(g *Generator, n int) []Op {
			ops := make([]Op, n)
			for i := range ops {
				ops[i] = g.NextOp(i%cfg.NumSMs, (i/cfg.NumSMs)%cfg.MaxWarpsPerSM)
			}
			return ops
		}
		drive(orig, 30_000)
		orig.NextKernel()
		drive(orig, 12_345)
		st, err := orig.SaveProgState()
		if err != nil {
			t.Fatal(err)
		}
		resumed := MustNewGenerator(spec, cfg, 5)
		if err := resumed.RestoreProgState(st); err != nil {
			t.Fatal(err)
		}
		if pos, err := StreamPositions(st); err != nil || len(pos) != 1 || pos[0] != orig.rng.draws {
			t.Errorf("%s: StreamPositions = %v, %v; want [%d]", abbr, pos, err, orig.rng.draws)
		}
		for round := 0; round < 2; round++ {
			want, got := drive(orig, 20_000), drive(resumed, 20_000)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s: op %d after restore (round %d) = %+v, uninterrupted %+v", abbr, i, round, got[i], want[i])
				}
			}
			orig.NextKernel()
			resumed.NextKernel()
		}
		if other := MustNewGenerator(spec, cfg, 6); other.RestoreProgState(st) == nil {
			t.Errorf("%s: snapshot of seed 5 restored onto seed 6", abbr)
		}
	}
}

var sinkOp Op

// BenchmarkGeneratorNextOp is the workload rung of the measurement ladder:
// ns per generated op for a compute-, a memory- and a streaming-heavy spec.
func BenchmarkGeneratorNextOp(b *testing.B) {
	cfg := config.Baseline()
	for _, abbr := range []string{"MM", "LUD", "VA"} {
		b.Run(abbr, func(b *testing.B) {
			spec, _ := ByAbbr(abbr)
			g := MustNewGenerator(spec, cfg, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkOp = g.NextOp(i%cfg.NumSMs, (i/cfg.NumSMs)%cfg.MaxWarpsPerSM)
			}
		})
	}
}

// BenchmarkGeneratorRestore shows restore time independent of how far the
// snapshotted stream had advanced.
func BenchmarkGeneratorRestore(b *testing.B) {
	cfg := config.Baseline()
	spec, _ := ByAbbr("MM")
	for _, c := range []struct {
		name  string
		draws uint64
	}{{"1e4-draws", 1e4}, {"1e7-draws", 1e7}} {
		draws := c.draws
		b.Run(c.name, func(b *testing.B) {
			g := MustNewGenerator(spec, cfg, 1)
			for i := 0; g.rng.draws < draws; i++ {
				g.NextOp(i%cfg.NumSMs, (i/cfg.NumSMs)%cfg.MaxWarpsPerSM)
			}
			st, err := g.SaveProgState()
			if err != nil {
				b.Fatal(err)
			}
			fresh := MustNewGenerator(spec, cfg, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fresh.RestoreProgState(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
