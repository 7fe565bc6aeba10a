package cache

import (
	"math/rand"
	"testing"
)

// scanSharerHistogram is SharerHistogram as it was: a walk over every line
// of the cache. The touched list must reproduce it exactly.
func scanSharerHistogram(c *Cache) (h [5]int) {
	for i := range c.tags {
		if c.tags[i] == 0 || sharersOf(c, i) == 0 {
			continue
		}
		h[4]++
		switch n := popcount(sharersOf(c, i)); {
		case n <= 1:
			h[0]++
		case n == 2:
			h[1]++
		case n <= 4:
			h[2]++
		default:
			h[3]++
		}
	}
	return
}

// sharersOf is slot i's sharer set; a cache no cluster has accessed has no
// sharer column.
func sharersOf(c *Cache, i int) uint64 {
	if c.sharers == nil {
		return 0
	}
	return c.sharers[i]
}

func popcount(v uint64) (n int) {
	for ; v != 0; v &= v - 1 {
		n++
	}
	return
}

// TestTouchedSetMatchesFullScan drives a small cache with random accesses,
// invalidations, flushes, window resets and snapshot round-trips, and holds
// the O(touched) histogram to the full scan at every step, every line with
// sharers to being in the touched set, and ResetSharers to clearing every
// sharer set.
func TestTouchedSetMatchesFullScan(t *testing.T) {
	c := New(Config{SizeBytes: 24 * 4 * 128, Ways: 4, LineBytes: 128, Policy: WriteBack}) // 96 slots: two words
	rng := rand.New(rand.NewSource(7))
	addr := func() uint64 { return uint64(rng.Intn(288)) << 7 } // 3x the capacity: victims get reused
	check := func(step int, what string) {
		t.Helper()
		one, two, threeFour, fivePlus, total := c.SharerHistogram()
		if got, want := [5]int{one, two, threeFour, fivePlus, total}, scanSharerHistogram(c); got != want {
			t.Fatalf("step %d after %s: histogram %v, full scan %v", step, what, got, want)
		}
		for i := range c.tags {
			if s := sharersOf(c, i); s != 0 && c.touched[i/64]>>(i%64)&1 == 0 {
				t.Fatalf("step %d after %s: slot %d has sharers %b but is not in the touched set", step, what, i, s)
			}
		}
	}
	sawHistogram := false
	for step := 0; step < 40000; step++ {
		what := "access"
		switch k := rng.Intn(1000); {
		case k < 900:
			kind := Read
			if rng.Intn(4) == 0 {
				kind = Write
			}
			c.Access(addr(), kind, rng.Intn(9)-1) // cluster -1: untracked, as the L1s access
		case k < 970:
			what = "invalidate"
			c.Invalidate(addr())
		case k < 990:
			what = "reset"
			c.ResetSharers()
			for i := range c.tags {
				if sharersOf(c, i) != 0 {
					t.Fatalf("step %d: ResetSharers left sharers on slot %d", step, i)
				}
			}
		case k < 995:
			what = "flush"
			c.FlushAll()
		default:
			what = "restore"
			b := snapshot(c)
			c = New(c.Config())
			if err := restore(c, b); err != nil {
				t.Fatal(err)
			}
		}
		check(step, what)
		if _, _, _, five, total := c.SharerHistogram(); five > 0 && total > 20 {
			sawHistogram = true
		}
	}
	if !sawHistogram {
		t.Fatal("the drive never built a populated histogram")
	}
}
