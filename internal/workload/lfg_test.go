package workload

import (
	"bytes"
	"math"
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
			if w, g := want.Int63n(n), int64(got.below(newModulus(uint64(n)))); w != g {
				t.Fatalf("seed %d draw %d: Int63n(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		}
		if got.draws < 120_000 {
			t.Errorf("seed %d: stream position %d after 120000 calls", seed, got.draws)
		}
	}
}

// float64 is rand.Rand.Float64, including its resample of the one input
// that rounds to 1.0: the draw the generator compared against its
// probabilities before thresholds.
func (r *lfg) float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// refBelow is rand.Rand.Int63n as the generator drew it before moduli: the
// rejection limit and the remainder each a divide, on every call.
func (r *lfg) refBelow(n int64) int64 {
	if n&(n-1) == 0 {
		return r.int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.int63()
	for v > limit {
		v = r.int63()
	}
	return v % n
}

// rig makes x the next int63 r draws.
func rig(r *lfg, x uint64) {
	r.vec[prev(r.feed)] = x - r.vec[prev(r.tap)]
}

// catalogFractions is every probability the catalog's specs hold, with its
// neighbouring doubles and the ends of [0,1].
func catalogFractions() []float64 {
	ps := []float64{0, 1, math.Nextafter(0, 1), math.Nextafter(1, 0), 0.5}
	for _, s := range Catalog() {
		for _, p := range []float64{s.MemRatio, s.SharedFraction, s.WriteFraction, s.TrailingReuseFraction} {
			ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
		}
	}
	return ps
}

// TestThresholdMatchesFloatCompare holds `unit() >= thresholdOf(p)` to
// `float64() >= p`: on the draws either side of every threshold and of the
// resample boundary, and draw for draw on seeded streams, some rigged to
// draw the values that round to 1.0.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	if one != 1<<63-512 {
		t.Fatalf("1.0's threshold is %d, want 2^63 - 512", one)
	}
	ps := catalogFractions()
	edges := []uint64{0, 1, 2, 1<<63 - 513, 1<<63 - 512, 1<<63 - 1}
	for _, p := range ps {
		th := uint64(thresholdOf(p))
		edges = append(edges, th-2, th-1, th, th+1, th+2)
	}
	for _, p := range ps {
		th := thresholdOf(p)
		for _, x := range edges {
			x &= 1<<63 - 1
			if threshold(x) >= one {
				continue // resampled: never compared
			}
			if got, want := threshold(x) >= th, float64(x)/(1<<63) >= p; got != want {
				t.Fatalf("p %v (threshold %d), draw %d: threshold compare %v, float compare %v", p, th, x, got, want)
			}
		}
	}

	for seed := int64(0); seed < 4; seed++ {
		var fast, ref lfg
		fast.seed(seed)
		ref.seed(seed)
		for i := 0; i < 200_000; i++ {
			if i%97 == 0 { // the resample boundary, and either side of it
				x := uint64(1<<63 - 514 + i%5)
				rig(&fast, x)
				rig(&ref, x)
			}
			p := ps[i%len(ps)]
			if got, want := fast.unit() >= thresholdOf(p), ref.float64() >= p; got != want {
				t.Fatalf("seed %d draw %d, p %v: unit compare %v, float64 compare %v", seed, i, p, got, want)
			}
		}
		if fast.draws != ref.draws {
			t.Fatalf("seed %d: %d draws against float64's %d", seed, fast.draws, ref.draws)
		}
	}
}

// TestModMatchesRemainder holds the multiply-high reduction to `%` for
// bounds from 1 to past 2^62, the catalog's shared footprints among them,
// and dividends near 0, 2^63 and 2^64 and either side of multiples of n.
func TestModMatchesRemainder(t *testing.T) {
	ns := []uint64{1, 2, 5, 6, 5_120, 1<<62 + 1, 1 << 63, 1<<64 - 1}
	for _, s := range Catalog() {
		ns = append(ns, s.SharedLines(config.Baseline().LLCLineBytes))
	}
	for _, n := range ns {
		m := newModulus(n)
		var vs []uint64
		for d := uint64(0); d < 600; d++ {
			vs = append(vs, d, 1<<63-d, 1<<63+d, 1<<64-1-d, n*d, n*d-1, n*(1<<20+d)+1)
		}
		for _, v := range vs {
			if got, want := m.mod(v), v%n; got != want {
				t.Fatalf("%d mod %d = %d, want %d", v, n, got, want)
			}
		}
	}
}

// refNextOp is NextOp as it was before thresholds and moduli: every
// probability a float64 draw compared as a float, every bound a divide.
// Kernel boundaries share resetSweeps, whose draws TestLFGMatchesMathRand
// holds to math/rand.
func refNextOp(g *Generator, sm, warpSlot int) Op {
	ws := g.warp(sm, warpSlot)
	g.totalOps++
	if g.rng.float64() >= g.spec.MemRatio {
		return Op{ALULatency: g.spec.ALULatency}
	}
	g.totalMemOps++
	if g.rng.float64() < g.spec.SharedFraction {
		g.totalShared++
		return Op{IsMem: true, Addr: g.addrOffset + sharedBase + refSharedLine(g, ws)*g.lineBytes}
	}
	g.totalPrivate++
	write := g.rng.float64() < g.spec.WriteFraction
	var line uint64
	if g.spec.Pattern == PatternPrivateStream {
		line = ws.privPos % g.privLines
		ws.privPos++
	} else {
		line = uint64(g.rng.refBelow(int64(min(g.privLines, 4))))
	}
	return Op{IsMem: true, Write: write, Addr: g.addrOffset + privateBase + uint64(ws.ctaID)*g.privStride + line*g.lineBytes}
}

func refSharedLine(g *Generator, ws *warpState) uint64 {
	sharedLines := g.spec.SharedLines(g.cfg.LLCLineBytes)
	if g.spec.Pattern != PatternLockstepSweep {
		return uint64(g.rng.refBelow(int64(sharedLines)))
	}
	g.sharedCount++
	if g.sharedCount%uint64(g.cfg.NumSMs*g.cfg.MaxWarpsPerSM) == 0 {
		g.globalFrontier++
	}
	off := uint64(0)
	if g.spec.FrontierJitterLines > 0 {
		off = uint64(g.rng.refBelow(int64(g.spec.FrontierJitterLines) + 1))
	}
	if g.spec.TrailingReuseFraction > 0 && g.spec.TrailingWindowLines > 0 &&
		g.rng.float64() < g.spec.TrailingReuseFraction {
		back := min(uint64(g.rng.refBelow(int64(g.spec.TrailingWindowLines)))+1, g.globalFrontier)
		return (g.globalFrontier - back + ws.startPos) % sharedLines
	}
	return (g.globalFrontier + off + ws.startPos) % sharedLines
}

// TestGeneratorMatchesFloatReference drives every catalog spec, and a
// lockstep one with trailing reuse, through NextOp and through refNextOp
// from the same seed: the op streams must be identical across kernel
// boundaries and across a mid-run restore onto a fresh generator, and the
// final snapshots equal.
func TestGeneratorMatchesFloatReference(t *testing.T) {
	cfg := config.Baseline()
	specs := Catalog()
	trailing, _ := ByAbbr("AN")
	trailing.Abbr, trailing.TrailingReuseFraction = "AN-trailing", 0.3
	specs = append(specs, trailing)
	for _, spec := range specs {
		fast, ref := MustNewGenerator(spec, cfg, 5), MustNewGenerator(spec, cfg, 5)
		for i := 0; i < 60_000; i++ {
			if i%20_000 == 19_999 {
				fast.NextKernel()
				ref.NextKernel()
			}
			if i == 30_000 {
				st, err := fast.SaveProgState()
				if err != nil {
					t.Fatal(err)
				}
				fast = MustNewGenerator(spec, cfg, 5)
				if err := fast.RestoreProgState(st); err != nil {
					t.Fatal(err)
				}
			}
			sm, w := i%cfg.NumSMs, (i/cfg.NumSMs)%cfg.MaxWarpsPerSM
			if got, want := fast.NextOp(sm, w), refNextOp(ref, sm, w); got != want {
				t.Fatalf("%s: op %d = %+v, float reference %+v", spec.Abbr, i, got, want)
			}
		}
		a, _ := fast.SaveProgState()
		b, _ := ref.SaveProgState()
		if !bytes.Equal(a.Data, b.Data) {
			t.Errorf("%s: final snapshots differ", spec.Abbr)
		}
	}
}

// FuzzDrawArithmetic holds the generator's integer draw arithmetic to what it
// replaces: mod to `%`, and a threshold compare to the float compare, on
// every draw unit returns and every probability but NaN (Spec.Validate
// rejects it).
func FuzzDrawArithmetic(f *testing.F) {
	f.Add(uint64(5), uint64(1<<63+7), uint64(1<<63-512), 1.0)
	f.Add(uint64(1<<62+1), uint64(1<<64-1), uint64(1<<62), 0.5)
	f.Add(uint64(1), uint64(0), uint64(0), 0.0)
	f.Add(uint64(5_120), uint64(123_456_789), uint64(1<<63-513), math.Nextafter(1, 0))
	for _, p := range catalogFractions() {
		th := uint64(thresholdOf(p))
		f.Add(uint64(6), th, th-1, p)
	}
	f.Fuzz(func(t *testing.T, n, v, x uint64, p float64) {
		if n != 0 {
			if got, want := newModulus(n).mod(v), v%n; got != want {
				t.Fatalf("%d mod %d = %d, want %d", v, n, got, want)
			}
		}
		x &= 1<<63 - 1
		if math.IsNaN(p) || threshold(x) >= one {
			return
		}
		if got, want := threshold(x) >= thresholdOf(p), float64(x)/(1<<63) >= p; got != want {
			t.Fatalf("p %v, draw %d: threshold compare %v, float compare %v", p, x, got, want)
		}
	})
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
