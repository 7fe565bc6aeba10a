package addrmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testGeom() Geometry { return DefaultGeometry() }

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := []Geometry{
		{LineBytes: 0, Channels: 8, SlicesPerMC: 8, Banks: 16, RowBytes: 2048},
		{LineBytes: 128, Channels: 3, SlicesPerMC: 8, Banks: 16, RowBytes: 2048},
		{LineBytes: 128, Channels: 8, SlicesPerMC: 0, Banks: 16, RowBytes: 2048},
		{LineBytes: 128, Channels: 8, SlicesPerMC: 8, Banks: 7, RowBytes: 2048},
		{LineBytes: 128, Channels: 8, SlicesPerMC: 8, Banks: 16, RowBytes: 1000},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, g)
		}
	}
}

func TestNewByName(t *testing.T) {
	g := testGeom()
	m, err := New(SchemePAE, g)
	if _, ok := m.(*PAE); err != nil || !ok {
		t.Fatalf("New(pae) = %T, %v", m, err)
	}
	m, err = New(SchemeHynix, g)
	if _, ok := m.(*Hynix); err != nil || !ok {
		t.Fatalf("New(hynix) = %T, %v", m, err)
	}
	if _, err := New("bogus", g); err == nil {
		t.Fatal("New(bogus) should fail")
	}
	if _, err := New(SchemePAE, Geometry{}); err == nil {
		t.Fatal("New with invalid geometry should fail")
	}
}

func TestMapRangesInBounds(t *testing.T) {
	g := testGeom()
	mappers := []Mapper{mustPAE(t, g), mustHynix(t, g)}
	rng := rand.New(rand.NewSource(1))
	for _, m := range mappers {
		for i := 0; i < 10000; i++ {
			addr := rng.Uint64() >> 20 // keep addresses in a plausible range
			loc := m.Map(addr)
			if loc.Channel < 0 || loc.Channel >= g.Channels {
				t.Fatalf("%T: channel %d out of range", m, loc.Channel)
			}
			if loc.Slice < 0 || loc.Slice >= g.SlicesPerMC {
				t.Fatalf("%T: slice %d out of range", m, loc.Slice)
			}
			if loc.Bank < 0 || loc.Bank >= g.Banks {
				t.Fatalf("%T: bank %d out of range", m, loc.Bank)
			}
		}
	}
}

func TestSameLineSameLocation(t *testing.T) {
	g := testGeom()
	for _, m := range []Mapper{mustPAE(t, g), mustHynix(t, g)} {
		base := uint64(0x12345600)
		want := m.Map(base)
		for off := uint64(0); off < uint64(g.LineBytes); off++ {
			if got := m.Map(base + off); got != want {
				t.Fatalf("%T: offset %d within a line maps differently: %+v vs %+v",
					m, off, got, want)
			}
		}
	}
}

// TestPAEUniformity checks that PAE distributes a strided access stream
// (stride = one line) nearly uniformly across channels and slices, which is
// the property the paper relies on ("PAE address mapping uniformly
// distributes memory accesses across the different LLC slices").
func TestPAEUniformity(t *testing.T) {
	g := testGeom()
	m := mustPAE(t, g)
	const n = 64 * 1024
	chanCount := make([]int, g.Channels)
	sliceCount := make([]int, g.SlicesPerMC)
	bankCount := make([]int, g.Banks)
	for i := 0; i < n; i++ {
		loc := m.Map(uint64(i) * uint64(g.LineBytes))
		chanCount[loc.Channel]++
		sliceCount[loc.Slice]++
		bankCount[loc.Bank]++
	}
	checkBalance(t, "channel", chanCount, n, 0.25)
	checkBalance(t, "slice", sliceCount, n, 0.25)
	checkBalance(t, "bank", bankCount, n, 0.25)
}

// TestHynixImbalance checks that the Hynix mapping concentrates a
// large-stride stream onto few channels (the imbalance the paper's
// sensitivity study uses). A stride equal to the channel-interleave span
// keeps hitting the same channel.
func TestHynixImbalance(t *testing.T) {
	g := testGeom()
	m := mustHynix(t, g)
	// Stride chosen to keep channel bits constant: channel bits sit above
	// column+slice bits, so a stride of RowBytes*SlicesPerMC*Channels leaves
	// the channel unchanged.
	stride := uint64(g.RowBytes * g.SlicesPerMC * g.Channels)
	seen := make(map[int]bool)
	for i := uint64(0); i < 4096; i++ {
		loc := m.Map(i * stride)
		seen[loc.Channel] = true
	}
	if len(seen) != 1 {
		t.Errorf("expected stride pattern to hit a single channel under Hynix mapping, hit %d", len(seen))
	}
	// The same stream under PAE should spread across all channels.
	p := mustPAE(t, g)
	seenPAE := make(map[int]bool)
	for i := uint64(0); i < 4096; i++ {
		loc := p.Map(i * stride)
		seenPAE[loc.Channel] = true
	}
	if len(seenPAE) != g.Channels {
		t.Errorf("expected PAE to spread strided stream over %d channels, got %d", g.Channels, len(seenPAE))
	}
}

func checkBalance(t *testing.T, what string, counts []int, total int, tol float64) {
	t.Helper()
	expect := float64(total) / float64(len(counts))
	for i, c := range counts {
		dev := (float64(c) - expect) / expect
		if dev > tol || dev < -tol {
			t.Errorf("%s %d count %d deviates %.1f%% from expected %.0f", what, i, c, dev*100, expect)
		}
	}
}

// Property: mapping is a pure function (same address always maps to the same
// location) and row/col/bank/channel/slice jointly identify the line: two
// different line addresses never produce identical locations (injectivity on
// the line space the geometry can address).
func TestMappingInjectiveProperty(t *testing.T) {
	g := testGeom()
	for _, m := range []Mapper{mustPAE(t, g), mustHynix(t, g)} {
		m := m
		f := func(a, b uint32) bool {
			addrA := uint64(a) * uint64(g.LineBytes)
			addrB := uint64(b) * uint64(g.LineBytes)
			locA, locB := m.Map(addrA), m.Map(addrB)
			if addrA == addrB {
				return locA == locB
			}
			return locA != locB
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%T: injectivity property failed: %v", m, err)
		}
	}
}

func TestFoldXOR(t *testing.T) {
	if got := foldXOR(0, 3); got != 0 {
		t.Errorf("foldXOR(0,3) = %d, want 0", got)
	}
	if got := foldXOR(0b101_010, 3); got != 0b111 {
		t.Errorf("foldXOR = %b, want 111", got)
	}
	if got := foldXOR(0b101_010_111, 3); got != 0b000 {
		t.Errorf("foldXOR = %b, want 000", got)
	}
	if got := foldXOR(123456, 0); got != 0 {
		t.Errorf("foldXOR width 0 = %d, want 0", got)
	}
}

func mustPAE(t *testing.T, g Geometry) *PAE {
	t.Helper()
	m, err := NewPAE(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustHynix(t *testing.T, g Geometry) *Hynix {
	t.Helper()
	m, err := NewHynix(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
