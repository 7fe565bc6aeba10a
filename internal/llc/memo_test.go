package llc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
)

// TestParkedHeadStallsOncePerCycle: with the MSHR table full, a head read
// that misses the tags adds exactly one MSHRStalls (and its queue occupancy)
// per Tick, however long it waits, and is admitted on the first Tick after a
// DRAMComplete frees an entry — not one later.
func TestParkedHeadStallsOncePerCycle(t *testing.T) {
	cfg := config.Baseline().Normalize()
	cfg.LLCMSHRsPerSlice = 2
	s := NewSlice(0, 0, 0, cfg)
	for i := uint64(1); i <= 4; i++ {
		s.EnqueueRequest(req(i, i<<12, 0, 0))
	}
	cyc := uint64(0)
	tick := func() { cyc++; s.Tick(cyc) }
	tick() // line 1 allocates
	tick() // line 2 allocates: table full
	base := s.Stats()
	const wait = 1000
	for i := 1; i <= wait; i++ {
		tick()
		st := s.Stats()
		if st.MSHRStalls != base.MSHRStalls+uint64(i) {
			t.Fatalf("after %d parked cycles MSHRStalls grew by %d", i, st.MSHRStalls-base.MSHRStalls)
		}
		if st.QueueCycles != base.QueueCycles+2*uint64(i) || st.Accesses != base.Accesses {
			t.Fatalf("parked cycle %d: QueueCycles %d (base %d), Accesses %d (base %d)",
				i, st.QueueCycles, base.QueueCycles, st.Accesses, base.Accesses)
		}
		if !s.parked {
			t.Fatalf("parked cycle %d: the stall was not memoised", i)
		}
	}
	s.DRAMComplete(1 << 12)
	tick()
	if s.QueueLen() != 1 || s.Stats().MSHRStalls != base.MSHRStalls+wait {
		t.Fatalf("first Tick after the fill: queue %d (want 1), %d stalls (want %d)",
			s.QueueLen(), s.Stats().MSHRStalls-base.MSHRStalls, wait)
	}
	tick() // line 4 parks behind the refilled table
	if s.QueueLen() != 1 || s.Stats().MSHRStalls != base.MSHRStalls+wait+1 || !s.parked {
		t.Fatalf("next head did not park: queue %d, stalls +%d", s.QueueLen(), s.Stats().MSHRStalls-base.MSHRStalls)
	}
}

// TestMemoisedSliceMatchesUnmemoised drives two slices with the same random
// traffic and fills; one has its stall memo wiped before every Tick, so it
// re-runs the full probe each cycle as the slice did before the memo. Output
// queues, statistics and snapshots must stay identical. It also asserts what
// makes the memo sound: while a head is parked its line never becomes
// outstanding (only the head's own process inserts entries).
func TestMemoisedSliceMatchesUnmemoised(t *testing.T) {
	cfg := config.Baseline().Normalize()
	cfg.LLCMSHRsPerSlice = 4
	memo, plain := NewSlice(0, 0, 0, cfg), NewSlice(0, 0, 0, cfg)
	rng := rand.New(rand.NewSource(42))
	type fill struct {
		addr uint64
		at   uint64
	}
	var fills []fill
	cycles := uint64(60000)
	if testing.Short() {
		cycles = 10000
	}
	var id, parkedCycles uint64
	for cyc := uint64(1); cyc <= cycles; cyc++ {
		// Bursts that overrun four MSHRs, with quiet stretches between.
		if cyc%512 < 384 && rng.Intn(3) > 0 {
			id++
			r := mem.Request{ID: id, Addr: uint64(rng.Intn(4096)) << 7, SM: rng.Intn(80), Cluster: rng.Intn(8), Write: rng.Intn(5) == 0}
			a, b := r, r
			memo.EnqueueRequest(&a)
			plain.EnqueueRequest(&b)
		}
		if memo.parked {
			parkedCycles++
			if line := memo.tags.LineAddr(memo.inq.Front().Addr); memo.mshrs.Outstanding(line) {
				t.Fatalf("cycle %d: parked line %#x became outstanding", cyc, line)
			}
		}
		plain.parked = false
		memo.Tick(cyc)
		plain.Tick(cyc)
		for memo.HasDRAMRequest() {
			d, _ := memo.PopDRAMRequest()
			pd, ok := plain.PopDRAMRequest()
			if !ok || d != pd {
				t.Fatalf("cycle %d: DRAM request %+v, unmemoised %+v (%v)", cyc, d, pd, ok)
			}
			if d.Fill {
				fills = append(fills, fill{d.Addr, cyc + 40 + uint64(rng.Intn(400))})
			}
		}
		if plain.HasDRAMRequest() {
			t.Fatalf("cycle %d: unmemoised slice emitted an extra DRAM request", cyc)
		}
		keep := fills[:0]
		for _, f := range fills {
			if cyc >= f.at {
				memo.DRAMComplete(f.addr)
				plain.DRAMComplete(f.addr)
			} else {
				keep = append(keep, f)
			}
		}
		fills = keep
		for memo.HasReply(cyc) {
			r, _ := memo.PopReply(cyc)
			pr, ok := plain.PopReply(cyc)
			if !ok || r != pr {
				t.Fatalf("cycle %d: reply %+v, unmemoised %+v (%v)", cyc, r, pr, ok)
			}
		}
		if memo.Stats() != plain.Stats() {
			t.Fatalf("cycle %d: stats\n memo  %+v\n plain %+v", cyc, memo.Stats(), plain.Stats())
		}
	}
	if !reflect.DeepEqual(memo.SaveState(), plain.SaveState()) {
		t.Fatal("snapshots differ")
	}
	if st := memo.Stats(); st.MSHRStalls == 0 || parkedCycles < st.MSHRStalls/2 {
		t.Fatalf("the drive barely parked: %d stalls, %d memoised cycles", st.MSHRStalls, parkedCycles)
	}
}
