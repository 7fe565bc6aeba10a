package workload

import (
	"math"
	"testing"

	"repro/internal/config"
)

func TestCatalogMatchesTable2(t *testing.T) {
	cat := Catalog()
	if len(cat) != 17 {
		t.Fatalf("catalog has %d entries, want 17", len(cat))
	}
	wantClass := map[string]Class{
		"LUD": SharedFriendly, "SP": SharedFriendly, "3DC": SharedFriendly,
		"BT": SharedFriendly, "GEMM": SharedFriendly, "BP": SharedFriendly,
		"AN": PrivateFriendly, "RN": PrivateFriendly, "SN": PrivateFriendly,
		"NN": PrivateFriendly, "MM": PrivateFriendly,
		"BS": Neutral, "DWT2D": Neutral, "MS": Neutral,
		"BINO": Neutral, "HG": Neutral, "VA": Neutral,
	}
	wantMB := map[string]float64{
		"LUD": 33.4, "SP": 17.0, "3DC": 51.1, "BT": 13.7, "GEMM": 1.8, "BP": 18.8,
		"AN": 1.0, "RN": 4.2, "SN": 0.7, "NN": 5.7, "MM": 1.9,
		"BS": 0.001, "DWT2D": 0.001, "MS": 0.001, "BINO": 0.017, "HG": 0.003, "VA": 0.001,
	}
	wantKernels := map[string]int{
		"LUD": 3, "SP": 2, "3DC": 48, "BT": 1, "GEMM": 1, "BP": 2,
		"AN": 6, "RN": 6, "SN": 1, "NN": 2, "MM": 2,
		"BS": 3, "DWT2D": 1, "MS": 1, "BINO": 1, "HG": 1, "VA": 1,
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: invalid spec: %v", s.Abbr, err)
		}
		if seen[s.Abbr] {
			t.Errorf("duplicate abbreviation %s", s.Abbr)
		}
		seen[s.Abbr] = true
		if s.Class != wantClass[s.Abbr] {
			t.Errorf("%s: class %v, want %v", s.Abbr, s.Class, wantClass[s.Abbr])
		}
		if math.Abs(s.SharedDataMB-wantMB[s.Abbr]) > 1e-9 {
			t.Errorf("%s: shared footprint %v MB, want %v", s.Abbr, s.SharedDataMB, wantMB[s.Abbr])
		}
		if s.Kernels != wantKernels[s.Abbr] {
			t.Errorf("%s: kernels %d, want %d", s.Abbr, s.Kernels, wantKernels[s.Abbr])
		}
	}
}

func TestByAbbrAndByClass(t *testing.T) {
	if _, ok := ByAbbr("GEMM"); !ok {
		t.Error("GEMM should be in the catalog")
	}
	if _, ok := ByAbbr("NOPE"); ok {
		t.Error("unknown abbreviation should not resolve")
	}
	if n := len(ByClass(SharedFriendly)); n != 6 {
		t.Errorf("shared-friendly count = %d, want 6", n)
	}
	if n := len(ByClass(PrivateFriendly)); n != 5 {
		t.Errorf("private-friendly count = %d, want 5", n)
	}
	if n := len(ByClass(Neutral)); n != 6 {
		t.Errorf("neutral count = %d, want 6", n)
	}
}

// TestCatalogIsBuiltOnce: a lookup allocates nothing, and a caller that
// edits its Catalog or ByClass slice changes no later answer.
func TestCatalogIsBuiltOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ByAbbr("VA") }); n != 0 {
		t.Errorf("ByAbbr allocates %v times per call, want 0", n)
	}
	want, _ := ByAbbr("LUD")
	cat := Catalog()
	cat[0].Abbr, cat[0].Kernels = "X", 99
	ByClass(SharedFriendly)[0].Kernels = 99
	if got := Catalog()[0]; got != want {
		t.Errorf("Catalog()[0] = %+v after a caller's edit, want %+v", got, want)
	}
	if got, _ := ByAbbr("LUD"); got != want {
		t.Errorf("ByAbbr(LUD) = %+v after a caller's edit, want %+v", got, want)
	}
}

func TestSpecValidate(t *testing.T) {
	good, _ := ByAbbr("AN")
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.MemRatio = 1.5 },
		func(s *Spec) { s.SharedFraction = -0.1 },
		func(s *Spec) { s.WriteFraction = 2 },
		func(s *Spec) { s.Kernels = 0 },
		func(s *Spec) { s.ALULatency = 0 },
		func(s *Spec) { s.PrivateKBPerCTA = -1 },
		func(s *Spec) { s.SharedDataMB = -1 },
		func(s *Spec) { s.MemRatio = math.NaN() },
		// Each of these built a generator that panicked on its first draw
		// ("draw below a non-positive bound") or drew from a negative window.
		func(s *Spec) { s.FrontierJitterLines = -1 },
		func(s *Spec) { s.FrontierJitterLines = -2 },
		func(s *Spec) { s.TrailingWindowLines = -1 },
		func(s *Spec) { s.TrailingReuseFraction = -0.1 },
		func(s *Spec) { s.TrailingReuseFraction = 1.5 },
		func(s *Spec) { s.TrailingReuseFraction = math.NaN() },
	}
	for i, mutate := range bad {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := NewGenerator(s, config.Baseline(), 1); err == nil {
			t.Errorf("case %d: NewGenerator accepted the spec", i)
		}
	}
	edge := good
	edge.FrontierJitterLines, edge.TrailingWindowLines, edge.TrailingReuseFraction = 0, 0, 1
	if err := edge.Validate(); err != nil {
		t.Errorf("zero jitter and window with a reuse fraction of 1: %v", err)
	}
}

func TestSharedLines(t *testing.T) {
	s := Spec{SharedDataMB: 1.0}
	if got := s.SharedLines(128); got != 8192 {
		t.Errorf("SharedLines = %d, want 8192", got)
	}
	tiny := Spec{SharedDataMB: 0.00001}
	if got := tiny.SharedLines(128); got != 1 {
		t.Errorf("tiny footprint SharedLines = %d, want at least 1", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := config.Baseline()
	spec, _ := ByAbbr("AN")
	a := MustNewGenerator(spec, cfg, 42)
	b := MustNewGenerator(spec, cfg, 42)
	for i := 0; i < 1000; i++ {
		sm, warp := i%cfg.NumSMs, i%cfg.MaxWarpsPerSM
		if a.NextOp(sm, warp) != b.NextOp(sm, warp) {
			t.Fatalf("streams diverge at op %d", i)
		}
	}
	c := MustNewGenerator(spec, cfg, 43)
	diff := 0
	for i := 0; i < 1000; i++ {
		sm, warp := i%cfg.NumSMs, i%cfg.MaxWarpsPerSM
		if a.NextOp(sm, warp) != c.NextOp(sm, warp) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds should produce different streams")
	}
}

func TestGeneratorAddressRegions(t *testing.T) {
	cfg := config.Baseline()
	spec, _ := ByAbbr("GEMM")
	g := MustNewGenerator(spec, cfg, 1)
	sharedLines := spec.SharedLines(cfg.LLCLineBytes)
	sharedEnd := sharedBase + sharedLines*uint64(cfg.LLCLineBytes)
	for i := 0; i < 20000; i++ {
		op := g.NextOp(i%cfg.NumSMs, i%cfg.MaxWarpsPerSM)
		if !op.IsMem {
			if op.ALULatency != spec.ALULatency {
				t.Fatalf("ALU op latency = %d, want %d", op.ALULatency, spec.ALULatency)
			}
			continue
		}
		inShared := op.Addr >= sharedBase && op.Addr < sharedEnd
		inPrivate := op.Addr >= privateBase
		if !inShared && !inPrivate {
			t.Fatalf("address %#x outside both regions", op.Addr)
		}
		if op.Write && inShared {
			t.Fatalf("store to shared region at %#x; shared data must be read-only", op.Addr)
		}
	}
	total, mem, shared, private := g.OpCounts()
	if total != 20000 {
		t.Fatalf("total ops = %d", total)
	}
	memFrac := float64(mem) / float64(total)
	if math.Abs(memFrac-spec.MemRatio) > 0.05 {
		t.Errorf("memory fraction %.3f deviates from MemRatio %.3f", memFrac, spec.MemRatio)
	}
	sharedFrac := float64(shared) / float64(mem)
	if math.Abs(sharedFrac-spec.SharedFraction) > 0.05 {
		t.Errorf("shared fraction %.3f deviates from SharedFraction %.3f", sharedFrac, spec.SharedFraction)
	}
	if shared+private != mem {
		t.Error("shared + private != mem ops")
	}
}

// TestLockstepFrontierIsNarrow verifies that under the lockstep-sweep pattern
// the shared accesses of all SMs stay within a narrow band of lines, which is
// what concentrates demand on few LLC slices under a shared LLC.
func TestLockstepFrontierIsNarrow(t *testing.T) {
	cfg := config.Baseline()
	spec, _ := ByAbbr("AN")
	g := MustNewGenerator(spec, cfg, 7)
	lineBytes := uint64(cfg.LLCLineBytes)

	// Emulate balanced progress: every warp issues the same number of ops.
	// Collect the shared lines touched in the final round.
	var minLine, maxLine uint64 = math.MaxUint64, 0
	rounds := 5
	for r := 0; r < rounds; r++ {
		for sm := 0; sm < cfg.NumSMs; sm++ {
			for w := 0; w < 8; w++ {
				op := g.NextOp(sm, w)
				if !op.IsMem || op.Addr >= privateBase {
					continue
				}
				if r != rounds-1 {
					continue
				}
				line := (op.Addr - sharedBase) / lineBytes
				if line < minLine {
					minLine = line
				}
				if line > maxLine {
					maxLine = line
				}
			}
		}
	}
	if minLine == math.MaxUint64 {
		t.Fatal("no shared accesses observed")
	}
	span := maxLine - minLine
	// Every warp issued the same op count, so positions differ only by the
	// initial jitter plus the per-warp randomness of how many of its ops were
	// shared loads. The span must stay far below the slice count (64).
	if span > 16 {
		t.Errorf("lockstep frontier span = %d lines, want <= 16", span)
	}
}

// TestUniformPatternSpreads verifies the uniform-shared pattern touches a
// large fraction of the footprint (no narrow frontier).
func TestUniformPatternSpreads(t *testing.T) {
	cfg := config.Baseline()
	spec, _ := ByAbbr("GEMM")
	g := MustNewGenerator(spec, cfg, 7)
	lines := map[uint64]bool{}
	for i := 0; i < 50000; i++ {
		op := g.NextOp(i%cfg.NumSMs, 0)
		if op.IsMem && op.Addr < privateBase {
			lines[(op.Addr-sharedBase)/uint64(cfg.LLCLineBytes)] = true
		}
	}
	if len(lines) < 4000 {
		t.Errorf("uniform pattern touched only %d distinct lines; expected thousands", len(lines))
	}
}

func TestKernelBoundaryResync(t *testing.T) {
	cfg := config.Baseline()
	spec, _ := ByAbbr("AN")
	g := MustNewGenerator(spec, cfg, 7)
	if g.kernel != 0 {
		t.Fatal("kernel should start at 0")
	}
	// Advance one warp far ahead.
	for i := 0; i < 5000; i++ {
		g.NextOp(0, 0)
	}
	// Record where the frontier is before the boundary.
	var beforeLine uint64
	for i := 0; i < 1000; i++ {
		op := g.NextOp(0, 0)
		if op.IsMem && op.Addr < privateBase {
			beforeLine = (op.Addr - sharedBase) / uint64(cfg.LLCLineBytes)
			break
		}
	}
	g.NextKernel()
	if g.kernel != 1 {
		t.Error("kernel counter should advance")
	}
	// After the boundary the next kernel works on fresh operands: the
	// frontier must have jumped forward past the L1 reach.
	l1Lines := uint64(cfg.L1SizeBytes / cfg.LLCLineBytes)
	for i := 0; i < 1000; i++ {
		op := g.NextOp(0, 0)
		if op.IsMem && op.Addr < privateBase {
			line := (op.Addr - sharedBase) / uint64(cfg.LLCLineBytes)
			if line < beforeLine+l1Lines/2 {
				t.Errorf("post-kernel shared access at line %d; expected a jump well past %d", line, beforeLine)
			}
			return
		}
	}
	t.Fatal("no shared access after kernel boundary")
}

func TestCTAAssignmentPolicies(t *testing.T) {
	spec, _ := ByAbbr("AN")
	for _, pol := range []config.CTASchedulerKind{config.CTATwoLevelRR, config.CTABlock, config.CTADistributed} {
		cfg := config.Baseline()
		cfg.CTAScheduler = pol
		g := MustNewGenerator(spec, cfg, 1)
		// Every warp must have a CTA, and CTA IDs must cover a contiguous
		// range starting at 0.
		maxCTA := 0
		for sm := 0; sm < cfg.NumSMs; sm++ {
			for w := 0; w < cfg.MaxWarpsPerSM; w++ {
				id := g.CTAOf(sm, w)
				if id < 0 {
					t.Fatalf("%v: negative CTA id", pol)
				}
				if id > maxCTA {
					maxCTA = id
				}
			}
		}
		warpsPerCTA := cfg.MaxWarpsPerSM / cfg.MaxCTAsPerSM
		wantCTAs := cfg.NumSMs * cfg.MaxWarpsPerSM / warpsPerCTA
		if maxCTA != wantCTAs-1 {
			t.Errorf("%v: max CTA id = %d, want %d", pol, maxCTA, wantCTAs-1)
		}
	}
	// Under BCS adjacent CTAs are on the same SM; under two-level RR
	// adjacent CTAs are on different clusters.
	cfgRR := config.Baseline()
	gRR := MustNewGenerator(spec, cfgRR, 1)
	cta0SM, cta1SM := -1, -1
	for sm := 0; sm < cfgRR.NumSMs && (cta0SM < 0 || cta1SM < 0); sm++ {
		for w := 0; w < cfgRR.MaxWarpsPerSM; w++ {
			switch gRR.CTAOf(sm, w) {
			case 0:
				if cta0SM < 0 {
					cta0SM = sm
				}
			case 1:
				if cta1SM < 0 {
					cta1SM = sm
				}
			}
		}
	}
	clusterOf := func(sm int) int { return sm / cfgRR.SMsPerCluster() }
	if clusterOf(cta0SM) == clusterOf(cta1SM) {
		t.Errorf("two-level RR: CTA 0 (SM %d) and CTA 1 (SM %d) should be on different clusters", cta0SM, cta1SM)
	}
}

func TestMultiProgram(t *testing.T) {
	cfg := config.Baseline()
	a, _ := ByAbbr("GEMM")
	b, _ := ByAbbr("AN")
	mp, err := NewMultiProgram([]Spec{a, b}, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Apps() != 2 {
		t.Fatalf("apps = %d", mp.Apps())
	}
	// Each cluster must contain SMs of both applications.
	smsPerCluster := cfg.SMsPerCluster()
	for cl := 0; cl < cfg.NumClusters; cl++ {
		seen := map[int]bool{}
		for s := 0; s < smsPerCluster; s++ {
			seen[mp.AppOf(cl*smsPerCluster+s)] = true
		}
		if len(seen) != 2 {
			t.Errorf("cluster %d runs %d apps, want 2", cl, len(seen))
		}
	}
	// Address spaces must not overlap between apps.
	addrsA := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		op := mp.progs[0].NextOp(0, 0)
		if op.IsMem {
			addrsA[op.Addr] = true
		}
	}
	for i := 0; i < 5000; i++ {
		op := mp.progs[1].NextOp(smsPerCluster-1, 0)
		if op.IsMem && addrsA[op.Addr] {
			t.Fatal("applications share addresses; address spaces must be disjoint")
		}
	}
	// Kernel boundaries propagate to every app.
	mp.NextKernel()
	if mp.progs[0].kernel != 1 || mp.progs[1].kernel != 1 {
		t.Error("NextKernel should advance all apps")
	}
}

func TestMultiProgramErrors(t *testing.T) {
	cfg := config.Baseline()
	if _, err := NewMultiProgram(nil, cfg, 1); err == nil {
		t.Error("empty spec list should fail")
	}
	specs := make([]Spec, 20)
	for i := range specs {
		specs[i], _ = ByAbbr("VA")
	}
	if _, err := NewMultiProgram(specs, cfg, 1); err == nil {
		t.Error("more apps than SMs per cluster should fail")
	}
}

func TestClassAndPatternStrings(t *testing.T) {
	if SharedFriendly.String() != "shared-friendly" || PrivateFriendly.String() != "private-friendly" || Neutral.String() != "neutral" {
		t.Error("Class String mismatch")
	}
	if Class(9).String() == "" {
		t.Error("unknown class should stringify")
	}
	if PatternUniformShared.String() != "uniform-shared" || PatternLockstepSweep.String() != "lockstep-sweep" || PatternPrivateStream.String() != "private-stream" {
		t.Error("Pattern String mismatch")
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern should stringify")
	}
}
