package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// testCluster is an in-process simd cluster: n daemons with separate stores
// joined through seed gossip (newDynamicCluster builds one).
type testCluster struct {
	urls    []string
	servers []*Server
	stores  []*simstore.Store
	https   []*http.Server
}

// kill shuts daemon i down gracefully (HTTP, queue, and a gossiped leave).
func (tc *testCluster) kill(i int) {
	tc.https[i].Close()
	tc.servers[i].Close()
}

// ownerIndex resolves which daemon owns a wire spec.
func (tc *testCluster) ownerIndex(t *testing.T, spec api.Spec) int {
	t.Helper()
	return tc.indexOf(t, tc.servers[0].node.Ranked(specFP(t, spec))[0])
}

func executedCounts(tc *testCluster) []uint64 {
	counts := make([]uint64, len(tc.servers))
	for i, s := range tc.servers {
		counts[i] = s.queue.Stats().Executed
	}
	return counts
}

// TestClusterForwardsToOwner: a spec POSTed to a non-owner executes exactly
// once, on its rendezvous owner, and repeat submissions through any member
// are forwarded byte-identical store hits.
func TestClusterForwardsToOwner(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	ctx := context.Background()

	spec := tinySpec("routed", 11)
	owner := tc.ownerIndex(t, spec)
	entry := (owner + 1) % 3 // deliberately a non-owner

	resp, err := client.New(tc.urls[entry]).Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, true)
	if err != nil {
		t.Fatal(err)
	}
	r1 := resp.Results[0]
	if r1.Status != api.StatusDone || r1.Stats == nil {
		t.Fatalf("routed run: status=%s error=%q", r1.Status, r1.Error)
	}
	if r1.Peer != tc.urls[owner] {
		t.Errorf("answered by %s, want owner %s", r1.Peer, tc.urls[owner])
	}
	for i, n := range executedCounts(tc) {
		want := uint64(0)
		if i == owner {
			want = 1
		}
		if n != want {
			t.Errorf("daemon %d executed %d runs, want %d", i, n, want)
		}
	}
	if tc.stores[owner].Len() != 1 {
		t.Errorf("owner store holds %d records, want 1", tc.stores[owner].Len())
	}

	// Same spec via the third member: a forwarded, byte-identical store hit.
	third := (owner + 2) % 3
	resp, err = client.New(tc.urls[third]).Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, true)
	if err != nil {
		t.Fatal(err)
	}
	r2 := resp.Results[0]
	if !r2.Cached {
		t.Error("repeat submission via another member was not a store hit")
	}
	s1, _ := json.Marshal(r1.Stats)
	s2, _ := json.Marshal(r2.Stats)
	if string(s1) != string(s2) {
		t.Errorf("forwarded cache hit not byte-identical:\n%s\n%s", s1, s2)
	}
	for i, n := range executedCounts(tc) {
		if i != owner && n != 0 {
			t.Errorf("daemon %d executed %d runs after repeat, want 0", i, n)
		}
	}
}

// TestClusterFigureByteIdenticalAndPlaced is the tentpole acceptance test:
// a figure generated through a 3-daemon cluster is byte-identical to
// single-daemon (and local) output, and every one of its runs was stored on
// the daemon that rendezvous hashing designates as its owner.
func TestClusterFigureByteIdenticalAndPlaced(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	tc := newDynamicCluster(t, 3, 1)
	ctx := context.Background()
	wireOpts := api.FigureOptions{Quick: true, Cycles: 2_500, Warmup: 500}

	// Single-daemon (== local harness) reference text.
	fig, _ := exp.FigureByKey("3")
	local, err := fig.Run(expOptions(wireOpts))
	if err != nil {
		t.Fatal(err)
	}

	pool, err := client.NewPool(tc.urls)
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := pool.FigureStream(ctx, "3", wireOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.FigureText != local {
		t.Errorf("cluster figure text differs from single-daemon output:\n--- cluster\n%s\n--- local\n%s", resp.FigureText, local)
	}
	if resp.ExecutedRuns == 0 {
		t.Error("first cluster generation executed no runs")
	}

	// Placement proof: every stored record lives on its fingerprint's
	// rendezvous owner, and the runs spread over more than one member.
	populated := 0
	total := 0
	for i, st := range tc.stores {
		recs, err := filepath.Glob(filepath.Join(st.Dir(), "*", "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 {
			populated++
		}
		total += len(recs)
		for _, path := range recs {
			hexFP := strings.TrimSuffix(filepath.Base(path), ".json")
			raw, err := hex.DecodeString(hexFP)
			if err != nil || len(raw) != 32 {
				t.Fatalf("bad record name %s", path)
			}
			var fp [32]byte
			copy(fp[:], raw)
			if owner := tc.servers[0].node.Ranked(fp)[0]; owner != tc.urls[i] {
				t.Errorf("record %s stored on %s but owned by %s", hexFP[:12], tc.urls[i], owner)
			}
		}
	}
	if total != resp.ExecutedRuns {
		t.Errorf("stores hold %d records, want %d (one per executed run)", total, resp.ExecutedRuns)
	}
	if populated < 2 {
		t.Errorf("only %d/3 stores populated; sharding is not spreading runs", populated)
	}

	// Regeneration through a different entry point: fully cache-served,
	// still byte-identical.
	again, err := client.New(tc.urls[1]).Figure(ctx, "3", wireOpts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Text != local {
		t.Error("regenerated cluster figure text not byte-identical")
	}
	if again.ExecutedRuns != 0 {
		t.Errorf("regeneration executed %d runs, want 0 (all owner-store hits)", again.ExecutedRuns)
	}
}

// TestClusterFailover: with a spec's owner dead, both entry paths — a POST
// to a surviving daemon and a Pool submission — still complete the request.
func TestClusterFailover(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	ctx := context.Background()

	// Find a spec owned by daemon 2 so we can kill it.
	var spec api.Spec
	for seed := int64(1); ; seed++ {
		spec = tinySpec("failover", seed)
		if tc.ownerIndex(t, spec) == 2 {
			break
		}
		if seed > 200 {
			t.Fatal("no spec owned by daemon 2 in 200 seeds")
		}
	}
	tc.crash(2) // silently: the survivors still rank the dead owner first

	// Server-side failover: the entry daemon cannot reach the dead owner
	// and walks down the ranking — the run executes exactly once, on some
	// survivor (the next-ranked member, or the entry itself).
	resp, err := client.New(tc.urls[0]).Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if r := resp.Results[0]; r.Status != api.StatusDone || r.Stats == nil {
		t.Fatalf("failover run: status=%s error=%q", r.Status, r.Error)
	}
	if got := executedCounts(tc); got[0]+got[1] != 1 || got[2] != 0 {
		t.Errorf("survivor executions = %v, want exactly one total on daemons 0/1", got)
	}

	// Client-side failover: the pool skips the dead owner and the request
	// completes on a survivor (a cache hit via daemon 0's store or a rerun).
	pool, err := client.NewPool(tc.urls)
	if err != nil {
		t.Fatal(err)
	}
	presp, err := pool.Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, true)
	if err != nil {
		t.Fatalf("pool failover failed: %v", err)
	}
	if r := presp.Results[0]; r.Status != api.StatusDone || r.Stats == nil {
		t.Fatalf("pool failover run: status=%s error=%q", r.Status, r.Error)
	}
}

// TestClusterEndpoint: GET /v1/cluster reports full membership with health,
// marks the answering daemon, and flags dead members as unhealthy.
func TestClusterEndpoint(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	var st api.ClusterStatus
	get := func() {
		t.Helper()
		resp, err := http.Get(tc.urls[0] + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	get()
	if st.Self != tc.urls[0] {
		t.Errorf("cluster self = %q, want %q", st.Self, tc.urls[0])
	}
	if len(st.Peers) != 3 {
		t.Fatalf("cluster reports %d peers, want 3", len(st.Peers))
	}
	selfSeen := false
	for _, p := range st.Peers {
		if !p.Healthy || p.Health == nil {
			t.Errorf("peer %s unhealthy in a live cluster: %s", p.URL, p.Error)
		}
		if p.Self {
			selfSeen = true
			if p.URL != tc.urls[0] {
				t.Errorf("self entry is %s, want %s", p.URL, tc.urls[0])
			}
		}
	}
	if !selfSeen {
		t.Error("no peer marked as self")
	}

	tc.kill(1)
	get()
	for _, p := range st.Peers {
		if p.URL == tc.urls[1] {
			if p.Healthy || p.Error == "" {
				t.Errorf("dead peer reported healthy: %+v", p)
			}
		} else if !p.Healthy {
			t.Errorf("live peer %s reported unhealthy: %s", p.URL, p.Error)
		}
	}
}

// TestForwardedHeaderStopsRouting: a forwarded submission executes where it
// lands even on a non-owner, bounding every request to one hop.
func TestForwardedHeaderStopsRouting(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	spec := tinySpec("hop", 21)
	owner := tc.ownerIndex(t, spec)
	entry := (owner + 1) % 3

	ctx := context.Background()
	entryClient := client.New(tc.urls[entry])
	resp, err := entryClient.ForwardRuns(ctx, api.RunRequest{Specs: []api.Spec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := entryClient.WaitJob(ctx, resp.Results[0].JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != api.StatusDone {
		t.Fatalf("forwarded run: status=%s error=%q", st.Status, st.Error)
	}
	if got := tc.servers[entry].queue.Stats().Executed; got != 1 {
		t.Errorf("forwarded-to daemon executed %d runs, want 1 (no second hop)", got)
	}
	if got := tc.servers[owner].queue.Stats().Executed; got != 0 {
		t.Errorf("owner executed %d runs for a request forcibly forwarded elsewhere, want 0", got)
	}
}

// TestFromRunSpecRoundTrip: the wire form the cluster forwards figure runs
// in must fingerprint identically to the original engine spec — otherwise a
// forwarded run would miss the owner's cache and double-store.
func TestFromRunSpecRoundTrip(t *testing.T) {
	specs := exputedSpecs(t)
	for i, rs := range specs {
		wire := api.FromRunSpec(rs)
		back, err := wire.ToRunSpec()
		if err != nil {
			t.Fatalf("spec %d: round-trip rejected: %v", i, err)
		}
		fp1, err := simstore.Fingerprint(rs)
		if err != nil {
			t.Fatal(err)
		}
		fp2, err := simstore.Fingerprint(back)
		if err != nil {
			t.Fatal(err)
		}
		if fp1 != fp2 {
			t.Errorf("spec %d (%s): fingerprint changed across the wire round-trip", i, rs.Key)
		}
	}
}

// exputedSpecs gathers a representative spread of engine specs, including
// multi-program and per-app adaptive-mode ones, via the wire layer.
func exputedSpecs(t *testing.T) []sweep.RunSpec {
	t.Helper()
	wires := []api.Spec{
		tinySpec("one", 1),
		{Benchmarks: []string{"VA", "GEMM"}, Mode: "adaptive", MeasureCycles: 4000, Seed: 3},
		{Benchmarks: []string{"VA", "GEMM"}, AppModes: []string{"shared", "private"}, MeasureCycles: 4000, Kernels: 2},
	}
	var out []sweep.RunSpec
	for _, w := range wires {
		rs, err := w.ToRunSpec()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs)
	}
	return out
}

// TestClusterJobLookupProxied: a forwarded async submission returns a job
// ID living on the owner — polling and cancelling that ID against the
// entry daemon must still work (proxied one hop), keeping
// every member a valid entry point for the whole job lifecycle.
func TestClusterJobLookupProxied(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	ctx := context.Background()

	spec := tinySpec("proxied", 31)
	owner := tc.ownerIndex(t, spec)
	entry := (owner + 1) % 3

	entryClient := client.New(tc.urls[entry])
	resp, err := entryClient.Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, false)
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Results[0]
	if r.JobID == "" || r.Peer != tc.urls[owner] {
		t.Fatalf("async forwarded miss: job=%q peer=%q, want owner %s", r.JobID, r.Peer, tc.urls[owner])
	}

	// Poll the owner's job ID via the entry daemon: proxied, not 404.
	st, err := entryClient.WaitJob(ctx, r.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("polling a forwarded job via the entry daemon failed: %v", err)
	}
	if st.Status != api.StatusDone || st.Stats == nil {
		t.Fatalf("proxied job status = %+v, want done with stats", st)
	}
	if st.Peer != tc.urls[owner] {
		t.Errorf("proxied status peer = %q, want %q", st.Peer, tc.urls[owner])
	}

	// Cancel of a terminal job reports its (terminal) state — via the entry
	// daemon it exercises the cancel proxy.
	cst, err := entryClient.Cancel(ctx, r.JobID)
	if err != nil {
		t.Fatalf("cancelling a forwarded job via the entry daemon failed: %v", err)
	}
	if cst.Status != api.StatusDone {
		t.Errorf("proxied cancel of a done job reports %q, want done", cst.Status)
	}

	// A genuinely unknown ID still 404s everywhere.
	if _, err := entryClient.Job(ctx, "j999999"); err == nil {
		t.Error("unknown job did not 404 through the proxy path")
	}
}
