package cache

import (
	"runtime"
	"runtime/debug"
	"testing"
)

func TestMSHRBasicAllocateComplete(t *testing.T) {
	m := NewMSHRTable[uint64](4, 0)
	primary, ok := m.Allocate(0x100, 1)
	if !primary || !ok {
		t.Fatalf("first allocation: primary=%v ok=%v, want true,true", primary, ok)
	}
	primary, ok = m.Allocate(0x100, 2)
	if primary || !ok {
		t.Fatalf("merge: primary=%v ok=%v, want false,true", primary, ok)
	}
	if m.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", m.Occupancy())
	}
	if !m.Outstanding(0x100) || m.Outstanding(0x200) {
		t.Error("Outstanding mismatch")
	}
	reqs := m.Complete(0x100)
	if len(reqs) != 2 || reqs[0] != 1 || reqs[1] != 2 {
		t.Errorf("Complete returned %v, want [1 2]", reqs)
	}
	if m.Complete(0x100) != nil {
		t.Error("double complete should return nil")
	}
	if m.Allocations() != 1 || m.Merges() != 1 {
		t.Errorf("allocations=%d merges=%d, want 1,1", m.Allocations(), m.Merges())
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHRTable[uint64](2, 0)
	m.Allocate(0x100, 1)
	m.Allocate(0x200, 2)
	if m.CanAccept(0x300) {
		t.Error("table should be full for new lines")
	}
	if !m.CanAccept(0x100) {
		t.Error("merging into existing entry should still be possible")
	}
	_, ok := m.Allocate(0x300, 3)
	if ok {
		t.Error("allocation beyond capacity should fail")
	}
	if m.FullStalls() != 1 {
		t.Errorf("FullStalls = %d, want 1", m.FullStalls())
	}
	m.Complete(0x100)
	if !m.CanAccept(0x300) {
		t.Error("space should be available after completion")
	}
}

func TestMSHRMergeLimit(t *testing.T) {
	m := NewMSHRTable[uint64](4, 2)
	m.Allocate(0x100, 1)
	_, ok := m.Allocate(0x100, 2)
	if !ok {
		t.Fatal("second merge should succeed")
	}
	if m.CanAccept(0x100) {
		t.Error("merge limit reached, CanAccept should be false")
	}
	_, ok = m.Allocate(0x100, 3)
	if ok {
		t.Error("merge beyond limit should fail")
	}
}

func TestMSHRPeakAndReset(t *testing.T) {
	m := NewMSHRTable[uint64](8, 0)
	for i := 0; i < 5; i++ {
		m.Allocate(uint64(i)*128, uint64(i))
	}
	if m.PeakOccupancy() != 5 {
		t.Errorf("peak = %d, want 5", m.PeakOccupancy())
	}
	if m.Capacity() != 8 {
		t.Errorf("capacity = %d, want 8", m.Capacity())
	}
	m.Reset()
	if m.Occupancy() != 0 || m.PeakOccupancy() != 0 || m.Allocations() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestMSHRProbeCommit(t *testing.T) {
	m := NewMSHRTable[uint64](2, 0)

	// Empty table: a probe offers a new allocation.
	p := m.Probe(0x100)
	if p.Kind() != ProbeNew || p.Outstanding() || !p.CanAccept() {
		t.Fatalf("probe of empty table = %v (outstanding=%v canAccept=%v), want ProbeNew",
			p.Kind(), p.Outstanding(), p.CanAccept())
	}
	if primary := m.Commit(p, 1); !primary {
		t.Fatal("commit of ProbeNew must be primary")
	}

	// Same line again: merge.
	p = m.Probe(0x100)
	if p.Kind() != ProbeMerge || !p.Outstanding() || !p.CanAccept() {
		t.Fatalf("probe of outstanding line = %v, want ProbeMerge", p.Kind())
	}
	if primary := m.Commit(p, 2); primary {
		t.Fatal("commit of ProbeMerge must not be primary")
	}
	if m.Allocations() != 1 || m.Merges() != 1 {
		t.Errorf("allocations=%d merges=%d, want 1,1", m.Allocations(), m.Merges())
	}

	// Fill the table: probing a third line reports full, without counting a
	// stall (the access may still hit in the cache).
	m.Commit(m.Probe(0x200), 3)
	p = m.Probe(0x300)
	if p.Kind() != ProbeTableFull || p.Outstanding() || p.CanAccept() {
		t.Fatalf("probe of full table = %v, want ProbeTableFull", p.Kind())
	}
	if m.FullStalls() != 0 {
		t.Errorf("ProbeTableFull counted %d full stalls, want 0", m.FullStalls())
	}

	// Completion returns the merged payloads in arrival order.
	if reqs := m.Complete(0x100); len(reqs) != 2 || reqs[0] != 1 || reqs[1] != 2 {
		t.Errorf("Complete returned %v, want [1 2]", reqs)
	}
}

func TestMSHRProbeMergeLimitCountsStall(t *testing.T) {
	m := NewMSHRTable[uint64](4, 1)
	m.Commit(m.Probe(0x100), 1)
	p := m.Probe(0x100)
	if p.Kind() != ProbeMergeLimit || !p.Outstanding() || p.CanAccept() {
		t.Fatalf("probe of merge-limited line = %v, want ProbeMergeLimit", p.Kind())
	}
	// A merge-limited access always stalls, so the probe itself counts it —
	// matching what Allocate counted when it rejected the merge.
	if m.FullStalls() != 1 {
		t.Errorf("FullStalls = %d, want 1", m.FullStalls())
	}
}

func TestMSHRCommitStaleProbePanics(t *testing.T) {
	m := NewMSHRTable[uint64](4, 0)
	m.Commit(m.Probe(0x100), 1)
	p := m.Probe(0x100) // ProbeMerge
	m.Complete(0x100)   // structural change invalidates p
	defer func() {
		if recover() == nil {
			t.Error("commit of a stale probe must panic")
		}
	}()
	m.Commit(p, 2)
}

func TestMSHRCommitStalledProbePanics(t *testing.T) {
	m := NewMSHRTable[uint64](1, 0)
	m.Commit(m.Probe(0x100), 1)
	p := m.Probe(0x200) // ProbeTableFull
	defer func() {
		if recover() == nil {
			t.Error("commit of a stalled probe must panic")
		}
	}()
	m.Commit(p, 2)
}

func TestMSHRPanicsOnInvalidCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMSHRTable[uint64](0, 0)
}

// TestMSHRMergeListsOutgrowTheirSlices drives one line's merge list past
// the table's initial slices while other entries are occupied and free, on a
// table that grows lists one by one and on one told its merge bound (which
// moves every entry to a deeper block at once): contents and arrival order
// survive, and recycled slices come back empty.
func TestMSHRMergeListsOutgrowTheirSlices(t *testing.T) {
	for _, bound := range []int{0, 32} {
		m := NewMSHRTable[int](4, 0)
		m.ExpectMerges(bound)
		m.Allocate(0xA, 100)
		m.Allocate(0xB, 200)
		m.Allocate(0xC, 300)
		m.Complete(0xC) // a free slice that has held a payload
		for i := 1; i <= 20; i++ {
			if primary, ok := m.Allocate(0xA, 100+i); primary || !ok {
				t.Fatalf("bound %d: merge %d into 0xA: primary=%v ok=%v", bound, i, primary, ok)
			}
		}
		m.Allocate(0xD, 400)
		if got := m.Complete(0xD); len(got) != 1 || got[0] != 400 {
			t.Errorf("bound %d: 0xD on a recycled slice = %v, want [400]", bound, got)
		}
		if got := m.Complete(0xB); len(got) != 1 || got[0] != 200 {
			t.Errorf("bound %d: 0xB after 0xA outgrew its slice = %v, want [200]", bound, got)
		}
		got := m.Complete(0xA)
		if len(got) != 21 {
			t.Fatalf("bound %d: 0xA holds %d payloads, want 21", bound, len(got))
		}
		for i, v := range got {
			if v != 100+i {
				t.Fatalf("bound %d: 0xA payload %d = %d, want %d (arrival order)", bound, i, v, 100+i)
			}
		}
	}
}

// TestMSHRBoundedTableSizesListsOnce: with the merge bound known a merge
// list is sized once, not doubled up to its depth; slices made after the
// first deep merge start out deep; and a restored table is as quiet as the
// one it was saved from.
func TestMSHRBoundedTableSizesListsOnce(t *testing.T) {
	// MemStats.Mallocs is process-wide: park the collector, whose background
	// workers allocate, for as long as the test counts.
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	// fill merges 32 payloads on each of 8 lines and returns how many heap
	// allocations the table made (counted around each call, so the test's
	// own stay out).
	fill := func(m *MSHRTable[int]) (mallocs uint64) {
		var before, after runtime.MemStats
		for line := uint64(1); line <= 8; line++ {
			for i := 0; i < 32; i++ {
				runtime.ReadMemStats(&before)
				m.Allocate(line, i)
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
			}
		}
		return mallocs
	}
	drain := func(m *MSHRTable[int]) {
		for line := uint64(1); line <= 8; line++ {
			m.Complete(line)
		}
	}
	// A chunk of small slices, the move to deep ones when line 1 outgrows
	// its slice (with spares for lines 2-5), a chunk of deep ones for lines
	// 6-8. Doubling would allocate twice per entry.
	m := NewMSHRTable[int](8, 0)
	m.ExpectMerges(32)
	if got := fill(m); got != 3 {
		t.Errorf("first fill of 8 entries x 32 merges allocated %d times, want 3", got)
	}
	st := m.SaveState()
	drain(m)
	if got := fill(m); got != 0 {
		t.Errorf("second fill allocated %d times, want 0", got)
	}

	fresh := NewMSHRTable[int](8, 0)
	fresh.ExpectMerges(32)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Complete(3); len(got) != 32 || got[31] != 31 {
		t.Errorf("restored line 3 = %d payloads, want 32 in order", len(got))
	}
	drain(fresh)
	if got := fill(fresh); got != 0 {
		t.Errorf("first fill of the restored table allocated %d times, want 0", got)
	}
}
