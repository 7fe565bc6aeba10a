package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
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
func (tc *testCluster) ownerIndex(t testing.TB, spec api.Spec) int {
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
	local, err := fig.Run(wireOpts.Options())
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
	again, err := figureSync(tc.urls[1], "3", wireOpts)
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

// TestClusterFailover: with a spec's owner dead, a POST to a surviving daemon
// still completes the request.
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
}

// TestClusterEndpoint: GET /v1/cluster/membership reports the full
// membership and marks the answering daemon, every live member's own /healthz
// carries its store and queue summary, and a departed member shows as such.
func TestClusterEndpoint(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	ctx := context.Background()
	var view api.MembershipView
	get := func() {
		t.Helper()
		resp, err := http.Get(tc.urls[0] + "/v1/cluster/membership")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		view = api.MembershipView{}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	get()
	if len(view.Members) != 3 || view.Epoch == 0 {
		t.Fatalf("membership reports %d members at epoch %d, want 3 at a live epoch", len(view.Members), view.Epoch)
	}
	for _, m := range view.Members {
		if m.Status != "alive" {
			t.Errorf("member %s is %q in a live cluster", m.Addr, m.Status)
		}
		if m.Self != (m.Addr == tc.urls[0]) {
			t.Errorf("member %s self = %v, answering daemon is %s", m.Addr, m.Self, tc.urls[0])
		}
		h, err := client.New(m.Addr).Health(ctx)
		if err != nil || h.Status != "ok" || h.Self != m.Addr || h.Workers != 2 {
			t.Errorf("member %s /healthz = %+v, %v", m.Addr, h, err)
		}
	}

	tc.kill(1)
	tc.waitMembers(t, 2, 0, 2)
	get()
	for _, m := range view.Members {
		want := "alive"
		if m.Addr == tc.urls[1] {
			want = "left"
		}
		if m.Status != want {
			t.Errorf("after daemon 1 left, member %s is %q, want %q", m.Addr, m.Status, want)
		}
	}
	if _, err := client.New(tc.urls[1]).Health(ctx); err == nil {
		t.Error("departed member still answers /healthz")
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

// jobHits reads, per daemon, how many job status / cancel / timeline requests
// it has served (the per-route request counter behind /metrics). The tests
// below send their own requests to one entry daemon, so whatever moves on the
// others is cluster-internal traffic.
func (tc *testCluster) jobHits() []uint64 {
	hits := make([]uint64, len(tc.servers))
	for i, s := range tc.servers {
		for _, route := range [][2]string{
			{"GET /v1/runs/{id}", "GET"}, {"POST /v1/jobs/{id}/cancel", "POST"}, {"GET /v1/jobs/{id}/timeline", "GET"},
		} {
			for _, code := range []string{"200", "307", "404"} {
				hits[i] += s.metrics.httpRequests.With(route[0], route[1], code).Value()
			}
		}
	}
	return hits
}

// TestClusterJobLookupProxied: a forwarded async submission returns a job ID
// living on the owner — polling, cancelling and asking for the timeline of
// that ID at the entry daemon must still work, keeping every member a valid
// entry point for the whole job lifecycle — and because the ID names its
// owner, each costs one request to the owner and none to anyone else (the
// timeline: a redirect and no request at all).
func TestClusterJobLookupProxied(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	ctx := context.Background()

	spec := tinySpec("proxied", 31)
	owner := tc.ownerIndex(t, spec)
	entry, third := (owner+1)%3, (owner+2)%3

	entryClient := client.New(tc.urls[entry])
	resp, err := entryClient.Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, false)
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Results[0]
	if r.JobID == "" || r.Peer != tc.urls[owner] {
		t.Fatalf("async forwarded miss: job=%q peer=%q, want owner %s", r.JobID, r.Peer, tc.urls[owner])
	}

	// oneHop runs one request against the entry daemon and asserts what it
	// cost inside the cluster.
	oneHop := func(what string, wantOwner uint64, do func()) {
		t.Helper()
		before := tc.jobHits()
		do()
		after := tc.jobHits()
		if d := after[owner] - before[owner]; d != wantOwner {
			t.Errorf("%s via a non-owner cost the owner %d requests, want %d", what, d, wantOwner)
		}
		if d := after[third] - before[third]; d != 0 {
			t.Errorf("%s via a non-owner cost a bystander %d requests, want 0", what, d)
		}
	}

	// Poll the owner's job ID via the entry daemon: proxied, not 404.
	polls0 := atomic.LoadUint64(&tc.servers[entry].remotePolls)
	oneHop("a status poll", 1, func() {
		st, err := entryClient.Job(ctx, r.JobID)
		if err != nil {
			t.Fatalf("polling a forwarded job via the entry daemon failed: %v", err)
		}
		if st.ID != r.JobID || st.Peer != tc.urls[owner] {
			t.Errorf("proxied status = job %q on %q, want %q on %q", st.ID, st.Peer, r.JobID, tc.urls[owner])
		}
	})
	if d := atomic.LoadUint64(&tc.servers[entry].remotePolls) - polls0; d != 1 {
		t.Errorf("entry counted %d remote polls for one proxied status, want 1", d)
	}
	st, err := entryClient.WaitJob(ctx, r.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != api.StatusDone || st.Stats == nil {
		t.Fatalf("proxied job status = %+v, want done with stats", st)
	}

	// Cancel of a terminal job reports its (terminal) state — via the entry
	// daemon it exercises the cancel proxy.
	oneHop("a cancel", 1, func() {
		cst, err := cancelJob(entryClient, r.JobID)
		if err != nil {
			t.Fatalf("cancelling a forwarded job via the entry daemon failed: %v", err)
		}
		if cst.Status != api.StatusDone {
			t.Errorf("proxied cancel of a done job reports %q, want done", cst.Status)
		}
	})

	// The timeline redirects to the owner without asking it anything.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	path := "/v1/jobs/" + r.JobID + "/timeline"
	oneHop("a timeline request", 0, func() {
		resp, err := noFollow.Get(tc.urls[entry] + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusTemporaryRedirect || loc != tc.urls[owner]+path {
			t.Errorf("timeline via a non-owner = HTTP %d to %q, want a 307 to %s", resp.StatusCode, loc, tc.urls[owner]+path)
		}
	})
	tresp, err := http.Get(tc.urls[entry] + path) // following the redirect
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var tl api.JobTimeline
	if err := json.NewDecoder(tresp.Body).Decode(&tl); err != nil || tl.ID != r.JobID || len(tl.Spans) == 0 {
		t.Errorf("redirected timeline = %+v (%v), want the job's span tree", tl, err)
	}
}

// TestUnknownJobIsNotSearchedFor: an ID nobody can hold — minted by no
// current member, or evicted by the member that minted it — answers 404 at
// no cluster-internal request, and with a member crashed an ID that member
// minted fails as fast as its refused connection (no per-dead-peer probe
// timeout to wait out).
func TestUnknownJobIsNotSearchedFor(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	ctx := context.Background()

	// A finished job on daemon 0, then forgotten the way retention forgets.
	c0 := client.New(tc.urls[0])
	resp, err := c0.ForwardRuns(ctx, api.RunRequest{Specs: []api.Spec{tinySpec("evicted", 41)}})
	if err != nil {
		t.Fatal(err)
	}
	evicted := resp.Results[0].JobID
	if _, err := c0.WaitJob(ctx, evicted, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	q := tc.servers[0].queue
	q.mu.Lock()
	delete(q.jobs, evicted)
	q.mu.Unlock()

	crashedID := tc.servers[2].queue.idBase + "-000001"
	tc.crash(2) // silently: the survivors still list it as a member

	for _, c := range []struct {
		what  string
		entry int
		id    string
		moved bool // the dead member's refused connection is not countable
	}{
		{"a malformed ID", 1, "j999999", false},
		{"an ID no member minted", 1, "j00000000ffffffff-000001", false},
		{"an evicted ID, at its owner", 0, evicted, false},
		{"an ID the crashed member minted", 1, crashedID, true},
	} {
		before := tc.jobHits()
		start := time.Now()
		_, err := client.New(tc.urls[c.entry]).Job(ctx, c.id)
		elapsed := time.Since(start)
		var se *client.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Errorf("%s: err = %v, want HTTP 404", c.what, err)
		}
		if elapsed > time.Second {
			t.Errorf("%s took %v to 404, want well under the old 2s dead-peer probe", c.what, elapsed)
		}
		after := tc.jobHits()
		after[c.entry]-- // the test's own request
		if !c.moved && !reflect.DeepEqual(before, after) {
			t.Errorf("%s cost cluster-internal requests: per-daemon job hits %v -> %v", c.what, before, after)
		}
	}
}

// TestFigureResolvesAsOneBatch pins the figure read path to the batch one
// POST /v1/runs takes: on a cold replicated cluster one figure job costs each
// other member at most one record lookup and one forwarded submission, however
// many runs the figure declares. The text stays byte-identical to
// single-daemon output and every record lands on its rendezvous owner.
func TestFigureResolvesAsOneBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	tc := newDynamicCluster(t, 3, 2)
	ctx := context.Background()
	wireOpts := api.FigureOptions{Quick: true, Cycles: 2_500, Warmup: 500}
	fig, _ := exp.FigureByKey("3")
	local, err := fig.Run(wireOpts.Options())
	if err != nil {
		t.Fatal(err)
	}

	const entry = 0
	c := client.New(tc.urls[entry])
	id, err := c.FigureAsync(ctx, "3", wireOpts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != api.StatusDone || st.FigureText != local {
		t.Errorf("cluster figure = %s, text differs from single-daemon output:\n--- cluster\n%s\n--- local\n%s", st.Status, st.FigureText, local)
	}

	forwards := uint64(0)
	for i, s := range tc.servers {
		if i == entry {
			continue
		}
		lookups := s.metrics.httpRequests.With("POST /v1/records/lookup", "POST", "200").Value()
		runs := s.metrics.httpRequests.With("POST /v1/runs", "POST", "200").Value()
		if lookups > 1 || runs > 1 {
			t.Errorf("daemon %d served %d record lookups and %d forwarded submissions for one %d-run figure, want at most one of each",
				i, lookups, runs, st.CachedRuns+st.ExecutedRuns)
		}
		forwards += runs
	}
	if forwards == 0 {
		t.Error("the figure forwarded nothing; the batch bound was not exercised")
	}

	for _, spec := range fig.Specs(wireOpts.Options()) {
		fp, err := simstore.Fingerprint(spec)
		if err != nil {
			t.Fatal(err)
		}
		owner := tc.indexOf(t, tc.servers[0].node.Ranked(fp)[0])
		if _, ok := tc.stores[owner].Get(fp); !ok {
			t.Errorf("run %s is not stored on its rendezvous owner (daemon %d); holders: %v", spec.Key, owner, tc.holders(fp))
		}
	}
}
