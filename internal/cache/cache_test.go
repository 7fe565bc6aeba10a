package cache

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func smallCfg() Config {
	return Config{SizeBytes: 8 * 1024, Ways: 4, LineBytes: 128, Policy: WriteBack}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		errSub string // "" for a valid configuration
	}{
		{smallCfg(), ""},
		{Config{SizeBytes: 48 * 1024, Ways: 6, LineBytes: 128}, ""},
		{Config{SizeBytes: 64 * 1024, Ways: 8, LineBytes: 128}, ""},
		{Config{SizeBytes: 96 * 1024, Ways: MaxWays, LineBytes: 128}, ""},
		{Config{SizeBytes: 0, Ways: 4, LineBytes: 128}, "positive"},
		{Config{SizeBytes: 8192, Ways: 0, LineBytes: 128}, "positive"},
		{Config{SizeBytes: 8192, Ways: 4, LineBytes: 100}, "power of two"},
		{Config{SizeBytes: 8191, Ways: 4, LineBytes: 128}, "multiple"},
		{Config{SizeBytes: 17 * 128, Ways: 17, LineBytes: 128}, "limit of 16"},
		{Config{SizeBytes: 32 * 1024, Ways: 32, LineBytes: 128}, "limit of 16"},
	} {
		err := tc.cfg.Validate()
		if tc.errSub == "" && err != nil {
			t.Errorf("%+v: %v", tc.cfg, err)
		}
		if tc.errSub != "" && (err == nil || !strings.Contains(err.Error(), tc.errSub)) {
			t.Errorf("%+v: error %v, want one containing %q", tc.cfg, err, tc.errSub)
		}
	}
}

// TestRestoreRejectsBadRecency: a snapshot whose valid lines do not rank
// 0..n-1 once each in their set — a position repeated, or past the set's
// valid lines — is refused.
func TestRestoreRejectsBadRecency(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 4 * 128, Ways: 4, LineBytes: 128, Policy: WriteBack})
	for a := uint64(0); a < 64; a++ {
		c.Access(a<<7, Write, int(a%3))
	}
	good := snapshot(c)
	if err := restore(New(c.Config()), good); err != nil {
		t.Fatal(err)
	}
	_, at := columns(t, good)
	for name, forge := range map[string]func(r []uint8){
		"repeated":     func(r []uint8) { r[1] = r[0] },
		"out of range": func(r []uint8) { r[0] = 4 },
		"past the set": func(r []uint8) { r[0] = 200 },
	} {
		b := bytes.Clone(good)
		forge(b[at:])
		if err := restore(New(c.Config()), b); err == nil || !strings.Contains(err.Error(), "ranks") {
			t.Errorf("%s: RestoreState = %v, want a ranking error", name, err)
		}
	}
}

// TestRestoreRejectsPaddingBits: the valid and dirty bit sets fill whole
// bytes, and a snapshot that sets a bit past the slots, or past the valid
// lines the dirty bits cover, is refused.
func TestRestoreRejectsPaddingBits(t *testing.T) {
	c := New(Config{SizeBytes: 6 * 128, Ways: 6, LineBytes: 128, Policy: WriteBack}) // one set of 6 slots
	for a := uint64(0); a < 3; a++ {
		c.Access(a<<7, Write, 0)
	}
	good := snapshot(c)
	if err := restore(New(c.Config()), good); err != nil {
		t.Fatal(err)
	}
	// The slot count is one byte, then one byte of valid bits and one of
	// dirty bits for the 3 valid lines.
	for at, want := range map[int]string{1: "valid beyond", 2: "dirty beyond"} {
		b := bytes.Clone(good)
		b[at] |= 0x80
		if err := restore(New(c.Config()), b); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("bit 7 of byte %d set: RestoreState = %v, want an error containing %q", at, err, want)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid config")
		}
	}()
	New(Config{})
}

func TestBasicHitMiss(t *testing.T) {
	c := New(smallCfg())
	r := c.Access(0x1000, Read, 0)
	if r.Hit {
		t.Error("first access should miss")
	}
	if c.ValidLines() != 1 {
		t.Error("miss should insert")
	}
	r = c.Access(0x1000, Read, 0)
	if !r.Hit {
		t.Error("second access should hit")
	}
	// Different offset within the same line also hits.
	r = c.Access(0x1007f, Read, 0)
	if r.Hit {
		t.Error("different line should miss")
	}
	r = c.Access(0x1040, Read, 0)
	if !r.Hit {
		t.Error("same-line different offset should hit")
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 128, Ways: 4, LineBytes: 128, Policy: WriteBack}
	c := New(cfg) // 1 set, 4 ways
	if c.Sets() != 1 {
		t.Fatalf("expected 1 set, got %d", c.Sets())
	}
	addrs := []uint64{0, 128, 256, 384}
	for _, a := range addrs {
		c.Access(a, Read, 0)
	}
	// Touch addr 0 to make it MRU; then a new line must evict addr 128.
	c.Access(0, Read, 0)
	r := c.Access(512, Read, 0)
	if !r.Evicted {
		t.Fatal("expected eviction")
	}
	if r.EvictedAddr != 128 {
		t.Errorf("evicted %#x, want 0x80 (LRU)", r.EvictedAddr)
	}
	if !c.Find(0).Hit() || c.Find(128).Hit() || !c.Find(512).Hit() {
		t.Error("post-eviction residency mismatch")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 128, Ways: 2, LineBytes: 128, Policy: WriteBack}
	c := New(cfg)
	c.Access(0, Write, 0)
	if c.DirtyLines() != 1 {
		t.Fatalf("expected 1 dirty line, got %d", c.DirtyLines())
	}
	c.Access(128, Read, 0)
	r := c.Access(256, Read, 0) // evicts line 0 (dirty)
	if !r.Evicted || !r.WritebackReq {
		t.Errorf("expected dirty eviction with writeback, got %+v", r)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	cfg := Config{SizeBytes: 8 * 1024, Ways: 4, LineBytes: 128, Policy: WriteThrough}
	c := New(cfg)
	// 8 KB / (4 ways * 128 B) = 16 sets -> 64-line capacity; stay below it so
	// nothing is evicted and line 0 remains resident for the hit check below.
	for i := 0; i < 50; i++ {
		r := c.Access(uint64(i)*128, Write, 0)
		if !r.WritebackReq {
			t.Fatal("write-through store must forward to next level")
		}
	}
	if c.DirtyLines() != 0 {
		t.Errorf("write-through cache has %d dirty lines, want 0", c.DirtyLines())
	}
	// Hits on resident lines also forward.
	r := c.Access(0, Write, 0)
	if !r.Hit || !r.WritebackReq {
		t.Errorf("write-through hit should still forward, got %+v", r)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := New(smallCfg())
	c.Access(0x1000, Write, 0)
	c.Access(0x2000, Read, 0)
	present, dirty := c.Invalidate(0x1000)
	if !present || !dirty {
		t.Errorf("Invalidate(0x1000) = %v,%v want true,true", present, dirty)
	}
	present, _ = c.Invalidate(0x1000)
	if present {
		t.Error("double invalidate should report not present")
	}
	c.Access(0x3000, Write, 0)
	valid, dirtyN := c.FlushAll()
	if valid != 2 || dirtyN != 1 {
		t.Errorf("FlushAll = %d,%d want 2,1", valid, dirtyN)
	}
	if c.ValidLines() != 0 {
		t.Error("cache not empty after FlushAll")
	}
}

func TestSharerHistogram(t *testing.T) {
	c := New(smallCfg())
	// Line A touched by clusters 0..5 (6 sharers -> 5+ bucket).
	for cl := 0; cl < 6; cl++ {
		c.Access(0x1000, Read, cl)
	}
	// Line B touched by clusters 0,1 (2 sharers).
	c.Access(0x2000, Read, 0)
	c.Access(0x2000, Read, 1)
	// Line C touched by cluster 3 only.
	c.Access(0x3000, Read, 3)
	// Line D touched by clusters 0,1,2 (3-4 bucket).
	c.Access(0x4000, Read, 0)
	c.Access(0x4000, Read, 1)
	c.Access(0x4000, Read, 2)

	one, two, threeFour, fivePlus, total := c.SharerHistogram()
	if total != 4 {
		t.Fatalf("total = %d, want 4", total)
	}
	if one != 1 || two != 1 || threeFour != 1 || fivePlus != 1 {
		t.Errorf("histogram = %d/%d/%d/%d, want 1/1/1/1", one, two, threeFour, fivePlus)
	}
	c.ResetSharers()
	one, two, threeFour, fivePlus, total = c.SharerHistogram()
	if total != 0 || one+two+threeFour+fivePlus != 0 {
		t.Errorf("after ResetSharers histogram = %d/%d/%d/%d of %d, want empty (untouched lines excluded)",
			one, two, threeFour, fivePlus, total)
	}
	// Touching one line again brings it back into the histogram.
	c.Access(0x3000, Read, 2)
	one, _, _, _, total = c.SharerHistogram()
	if total != 1 || one != 1 {
		t.Errorf("after one re-access histogram total=%d one=%d, want 1/1", total, one)
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// The paper's LLC slice: 96 KB, 16-way, 128 B lines = 48 sets.
	cfg := Config{SizeBytes: 96 * 1024, Ways: 16, LineBytes: 128, Policy: WriteBack}
	c := New(cfg)
	if c.Sets() != 48 {
		t.Fatalf("sets = %d, want 48", c.Sets())
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		c.Access(rng.Uint64()>>30, Read, rng.Intn(8))
	}
	if c.ValidLines() > 48*16 {
		t.Errorf("more valid lines (%d) than capacity (%d)", c.ValidLines(), 48*16)
	}
}

// Property test: the number of valid lines never exceeds capacity, and a
// line just accessed always probes as resident.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		c := New(Config{SizeBytes: 4 * 1024, Ways: 4, LineBytes: 128, Policy: WriteBack})
		rng := rand.New(rand.NewSource(seed))
		n := int(ops)%500 + 1
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(16 * 1024))
			kind := Read
			if rng.Intn(3) == 0 {
				kind = Write
			}
			c.Access(addr, kind, rng.Intn(8))
			if !c.Find(addr).Hit() {
				return false
			}
		}
		capacity := c.Config().Sets() * c.Config().Ways
		return c.ValidLines() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWritePolicyAndKindStrings(t *testing.T) {
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Error("WritePolicy String mismatch")
	}
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("AccessKind String mismatch")
	}
}
