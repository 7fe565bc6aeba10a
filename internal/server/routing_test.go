package server

import (
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// TestBatchForwardSpansOwners (run with -race): one POST to a bystander
// carrying cold specs owned by both other members forwards the two owner
// groups concurrently. Each group's goroutine records job handles for its
// own specs only; every result must poll to done and every spec must have
// executed exactly once, on its owner.
func TestBatchForwardSpansOwners(t *testing.T) {
	tc := newDynamicCluster(t, 3, 2)
	ctx := context.Background()
	const entry = 0

	var specs []api.Spec
	perOwner := make([]int, 3)
	for seed := int64(1); len(specs) < 8 || perOwner[1] == 0 || perOwner[2] == 0; seed++ {
		if seed > 400 {
			t.Fatalf("no batch spanning both other owners in 400 seeds: %v", perOwner)
		}
		spec := tinySpec("span", seed)
		if owner := tc.ownerIndex(t, spec); owner != entry {
			perOwner[owner]++
			specs = append(specs, spec)
		}
	}

	resp, err := client.New(tc.urls[entry]).Runs(ctx, api.RunRequest{Specs: specs}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Status != api.StatusDone || r.Stats == nil {
			t.Errorf("spec %d: status=%s error=%q, want done with stats", i, r.Status, r.Error)
		}
		if want := tc.urls[tc.ownerIndex(t, specs[i])]; r.Peer != want {
			t.Errorf("spec %d answered by %s, want its owner %s", i, r.Peer, want)
		}
	}
	got := executedCounts(tc)
	for i, n := range got {
		if n != uint64(perOwner[i]) {
			t.Errorf("daemon %d executed %d runs, want %d (every spec exactly once, on its owner): %v", i, n, perOwner[i], got)
		}
	}
}

// TestResolverOutcomes drives the read path's four outcomes through POST
// /v1/runs and asserts what each is observed as: what was answered, who
// executed, and which cluster counters moved on the entry daemon.
func TestResolverOutcomes(t *testing.T) {
	tc := newDynamicCluster(t, 3, 2)
	ctx := context.Background()
	planted := gpu.RunStats{Cycles: 4242, Instructions: 17} // recognisably not simulated
	plantedJSON, _ := json.Marshal(planted)

	// enter runs one spec to completion through daemon `entry` and reports
	// the statistics answered and whether they came from a store.
	enter := func(t *testing.T, entry int, spec api.Spec) (string, bool) {
		resp, err := client.New(tc.urls[entry]).Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, true)
		if err != nil {
			t.Fatal(err)
		}
		r := resp.Results[0]
		if r.Status != api.StatusDone || r.Stats == nil {
			t.Fatalf("status=%s error=%q, want done with stats", r.Status, r.Error)
		}
		stats, _ := json.Marshal(r.Stats)
		return string(stats), r.Cached
	}

	// Ranks are positions in the spec's rendezvous ranking (0 = owner); -1
	// means nobody. Counter expectations are deltas on the entry daemon.
	cases := []struct {
		name        string
		entryRank   int
		plantRank   int // whose store holds the record beforehand
		execRank    int // who simulates it
		forwarded   uint64
		replicaHits uint64
		readRepairs uint64
	}{
		{name: "local store hit", entryRank: 0, plantRank: 0, execRank: -1},
		{name: "replica probe hit", entryRank: 2, plantRank: 1, execRank: -1, replicaHits: 1, readRepairs: 1},
		{name: "forward to owner", entryRank: 1, plantRank: -1, execRank: 0, forwarded: 1},
		{name: "self-owned local enqueue", entryRank: 0, plantRank: -1, execRank: 0},
	}

	seed := int64(100)
	for _, c := range cases {
		seed++
		spec := tinySpec(c.name, seed) // a fresh fingerprint per case
		t.Run(c.name+"/POST /v1/runs", func(t *testing.T) {
			fp := specFP(t, spec)
			ranked := tc.rankedIndices(t, fp)
			if c.plantRank >= 0 {
				tc.plant(t, ranked[c.plantRank], spec, planted)
			}
			wantExecuted := make([]uint64, len(tc.servers))
			if c.execRank >= 0 {
				wantExecuted[ranked[c.execRank]] = 1
			}

			srv := tc.servers[ranked[c.entryRank]]
			before := executedCounts(tc)
			fwd0 := atomic.LoadUint64(&srv.forwarded)
			hits0 := atomic.LoadUint64(&srv.replicaHits)
			repairs0 := atomic.LoadUint64(&srv.readRepairs)

			stats, cached := enter(t, ranked[c.entryRank], spec)

			if wantHit := c.plantRank >= 0; cached != wantHit {
				t.Errorf("cached = %v, want %v", cached, wantHit)
			} else if wantHit && stats != string(plantedJSON) {
				t.Errorf("answered %s, want the planted record %s", stats, plantedJSON)
			}
			for i, n := range executedCounts(tc) {
				if d := n - before[i]; d != wantExecuted[i] {
					t.Errorf("daemon %d executed %d runs, want %d", i, d, wantExecuted[i])
				}
			}
			if d := atomic.LoadUint64(&srv.forwarded) - fwd0; d != c.forwarded {
				t.Errorf("entry forwarded %d specs, want %d", d, c.forwarded)
			}
			if d := atomic.LoadUint64(&srv.replicaHits) - hits0; d != c.replicaHits {
				t.Errorf("entry counted %d replica hits, want %d", d, c.replicaHits)
			}
			// The repair is asynchronous; it lands the record on the owner.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				d := atomic.LoadUint64(&srv.readRepairs) - repairs0
				if d == c.readRepairs {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("entry counted %d read repairs, want %d", d, c.readRepairs)
					break
				}
			}
			if c.readRepairs > 0 {
				if _, ok := tc.stores[ranked[0]].Get(fp); !ok {
					t.Error("read repair did not land the record on the owner")
				}
			}
		})
	}
}

// rankedIndices maps fp's rendezvous ranking to daemon indices (0 = owner).
func (tc *testCluster) rankedIndices(t testing.TB, fp [32]byte) []int {
	t.Helper()
	var ranked []int
	for _, addr := range tc.servers[0].node.Ranked(fp) {
		ranked = append(ranked, tc.indexOf(t, addr))
	}
	return ranked
}

// plant stores stats as spec's record on daemon i, as if it had run there.
func (tc *testCluster) plant(t testing.TB, i int, spec api.Spec, stats gpu.RunStats) {
	t.Helper()
	rs, err := spec.ToRunSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.stores[i].Put(specFP(t, spec), spec.Key, rs.Canonical(), stats); err != nil {
		t.Fatal(err)
	}
}

// lookupCounts reads each daemon's served POST /v1/records/lookup count. A
// member counts a request before its answer completes, so the counts are
// final once the request that caused them has been answered.
func lookupCounts(tc *testCluster) []uint64 {
	n := make([]uint64, len(tc.servers))
	for i, s := range tc.servers {
		n[i] = s.metrics.httpRequests.With("POST /v1/records/lookup", "POST", "200").Value()
	}
	return n
}

// TestProbeAsksEachMemberOnce pins the record probe's messages on a 3-daemon
// K=2 cluster, where every member is a candidate of every spec: owners are
// asked first, a member is asked at most once per resolution, and the
// others are asked only about what the owners did not answer.
func TestProbeAsksEachMemberOnce(t *testing.T) {
	tc := newDynamicCluster(t, 3, 2)
	ctx := context.Background()
	planted := gpu.RunStats{Cycles: 4242, Instructions: 17} // recognisably not simulated

	// run submits spec through daemon entry and returns its one answer and
	// the lookups and executions each daemon served for it.
	run := func(t *testing.T, entry int, spec api.Spec) (api.RunResult, []uint64, []uint64) {
		t.Helper()
		lookups0, exec0 := lookupCounts(tc), executedCounts(tc)
		resp, err := client.New(tc.urls[entry]).Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, true)
		if err != nil {
			t.Fatal(err)
		}
		lookups, exec := lookupCounts(tc), executedCounts(tc)
		for i := range lookups {
			lookups[i] -= lookups0[i]
			exec[i] -= exec0[i]
		}
		return resp.Results[0], lookups, exec
	}
	noExecutions := []uint64{0, 0, 0}

	t.Run("stored spec asked of the bystander", func(t *testing.T) {
		spec := tinySpec("probe-stored", 501)
		r := tc.rankedIndices(t, specFP(t, spec))
		tc.plant(t, r[0], spec, planted)
		tc.plant(t, r[1], spec, planted)
		res, lookups, exec := run(t, r[2], spec)
		if !res.Cached || res.Peer != tc.urls[r[0]] {
			t.Errorf("answer cached=%v by %s, want the owner's stored record (%s)", res.Cached, res.Peer, tc.urls[r[0]])
		}
		want := make([]uint64, 3)
		want[r[0]] = 1
		if !reflect.DeepEqual(lookups, want) || !reflect.DeepEqual(exec, noExecutions) {
			t.Errorf("lookups served per daemon = %v, executions %v; want %v (the owner only) and none", lookups, exec, want)
		}
	})

	t.Run("cold spec asked of the bystander", func(t *testing.T) {
		spec := tinySpec("probe-cold", 502)
		r := tc.rankedIndices(t, specFP(t, spec))
		res, lookups, exec := run(t, r[2], spec)
		if res.Cached || res.Status != api.StatusDone {
			t.Errorf("answer cached=%v status=%s, want a fresh run, done", res.Cached, res.Status)
		}
		wantExec := make([]uint64, 3)
		wantExec[r[0]] = 1
		if !reflect.DeepEqual(exec, wantExec) {
			t.Errorf("executions per daemon = %v, want %v (once, on the owner)", exec, wantExec)
		}
		for i, n := range lookups {
			if n > 1 {
				t.Errorf("daemon %d served %d lookups for one spec, want at most 1: %v", i, n, lookups)
			}
		}
	})

	t.Run("record only on the headroom rank", func(t *testing.T) {
		spec := tinySpec("probe-headroom", 503)
		fp := specFP(t, spec)
		r := tc.rankedIndices(t, fp)
		tc.plant(t, r[2], spec, planted)
		repairs0 := atomic.LoadUint64(&tc.servers[r[0]].readRepairs)
		res, lookups, exec := run(t, r[0], spec)
		if !res.Cached || res.Peer != tc.urls[r[2]] {
			t.Errorf("answer cached=%v by %s, want the headroom rank's record (%s)", res.Cached, res.Peer, tc.urls[r[2]])
		}
		want := make([]uint64, 3)
		want[r[1]], want[r[2]] = 1, 1
		if !reflect.DeepEqual(lookups, want) || !reflect.DeepEqual(exec, noExecutions) {
			t.Errorf("lookups served per daemon = %v, executions %v; want %v and none", lookups, exec, want)
		}
		// The repair is asynchronous: it stores on the entry (rank 0) and
		// pushes to rank 1.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			repaired := atomic.LoadUint64(&tc.servers[r[0]].readRepairs) > repairs0
			if repaired && tc.stores[r[0]].Has(fp) && tc.stores[r[1]].Has(fp) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("record never read-repaired onto the top 2 (daemons %d and %d); holders: %v", r[0], r[1], tc.holders(fp))
			}
		}
	})
}
