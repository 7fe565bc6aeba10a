package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// testCluster is an in-process simd cluster: n daemons with separate stores
// joined through seed gossip (newDynamicCluster builds one). workers is each
// daemon's simulation worker count (0 means 2).
type testCluster struct {
	workers int
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
// a figure whose runs execute on a 3-daemon cluster is byte-identical to
// local output, and every one of its runs was stored on the daemon that
// rendezvous hashing designates as its owner.
func TestClusterFigureByteIdenticalAndPlaced(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	tc := newDynamicCluster(t, 3, 1)
	scale := exp.FigureOptions{Quick: true, Cycles: 2_500, Warmup: 500}
	local := localFigure(t, "3", scale)

	text, err := poolFigure("3", scale, nil, tc.urls...)
	if err != nil {
		t.Fatal(err)
	}
	if text != local {
		t.Errorf("cluster figure text differs from local output:\n--- cluster\n%s\n--- local\n%s", text, local)
	}
	executed := uint64(0)
	for _, n := range executedCounts(tc) {
		executed += n
	}
	if executed == 0 {
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
	if uint64(total) != executed {
		t.Errorf("stores hold %d records, want %d (one per executed run)", total, executed)
	}
	if populated < 2 {
		t.Errorf("only %d/3 stores populated; sharding is not spreading runs", populated)
	}

	// Regeneration through a pool seeded with another member: fully
	// cache-served, still byte-identical.
	before := executedCounts(tc)
	again, err := poolFigure("3", scale, nil, tc.urls[1])
	if err != nil {
		t.Fatal(err)
	}
	if again != local {
		t.Error("regenerated cluster figure text not byte-identical")
	}
	if after := executedCounts(tc); !reflect.DeepEqual(after, before) {
		t.Errorf("regeneration executed runs (per daemon %v -> %v), want 0 (all owner-store hits)", before, after)
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

// TestFromRunSpecRoundTrip: the wire form a client.Pool submits figure runs
// in must fingerprint identically to the original engine spec — otherwise a
// figure's run would miss the store and double-store.
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

// jobHits reads, per daemon, how many job status / timeline requests
// it has served (the per-route request counter behind /metrics). The tests
// below send their own requests to one entry daemon, so whatever moves on the
// others is cluster-internal traffic.
func (tc *testCluster) jobHits() []uint64 {
	hits := make([]uint64, len(tc.servers))
	for i, s := range tc.servers {
		for _, route := range [][2]string{
			{"GET /v1/runs/{id}", "GET"}, {"GET /v1/jobs/{id}/timeline", "GET"},
		} {
			for _, code := range []string{"200", "307", "404"} {
				hits[i] += s.metrics.httpRequests.With(route[0], route[1], code).Value()
			}
		}
	}
	return hits
}

// noFollow is an HTTP client that hands a redirect back instead of
// following it.
var noFollow = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}

// TestJobRequestsRedirectToOwner: a forwarded async submission returns a job
// ID living on the owner. Status and timeline requests for it at
// another member each answer a 307 to the same path on the owner the ID
// names, so nothing about a job travels server to server: followed, each
// costs the owner exactly one request and a bystander none, and the answer
// is the owner's.
func TestJobRequestsRedirectToOwner(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	ctx := context.Background()

	spec := tinySpec("redirected", 31)
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
	if _, err := client.New(tc.urls[owner]).WaitJob(ctx, r.JobID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// redirected asks the entry daemon for path, first without following the
	// redirect and then following it through follow, and asserts what the
	// followed request cost inside the cluster.
	redirected := func(what, path string, follow func()) {
		t.Helper()
		resp, err := noFollow.Get(tc.urls[entry] + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusTemporaryRedirect || loc != tc.urls[owner]+path {
			t.Errorf("%s via a non-owner = HTTP %d to %q, want a 307 to %s", what, resp.StatusCode, loc, tc.urls[owner]+path)
		}
		before := tc.jobHits()
		follow()
		after := tc.jobHits()
		if d := after[owner] - before[owner]; d != 1 {
			t.Errorf("%s via a non-owner cost the owner %d requests, want 1", what, d)
		}
		if d := after[third] - before[third]; d != 0 {
			t.Errorf("%s via a non-owner cost a bystander %d requests, want 0", what, d)
		}
	}

	redirected("a status poll", "/v1/runs/"+r.JobID, func() {
		st, err := entryClient.Job(ctx, r.JobID)
		if err != nil {
			t.Fatalf("polling a forwarded job via the entry daemon failed: %v", err)
		}
		if st.ID != r.JobID || st.Peer != tc.urls[owner] || st.Status != api.StatusDone || st.Stats == nil {
			t.Errorf("redirected status = %+v, want job %q done on %q with stats", st, r.JobID, tc.urls[owner])
		}
	})
	path := "/v1/jobs/" + r.JobID + "/timeline"
	redirected("a timeline request", path, func() {
		tresp, err := http.Get(tc.urls[entry] + path)
		if err != nil {
			t.Fatal(err)
		}
		defer tresp.Body.Close()
		var tl api.JobTimeline
		if err := json.NewDecoder(tresp.Body).Decode(&tl); err != nil || tl.ID != r.JobID || tl.Peer != tc.urls[owner] || len(tl.Spans) == 0 {
			t.Errorf("redirected timeline = %+v (%v), want the job's span tree on %s", tl, err, tc.urls[owner])
		}
	})
}

// TestUnknownJobIsNotSearchedFor: an ID nobody can hold — minted by no
// current member, or evicted by the member that minted it — answers 404 at
// no cluster-internal request. An ID a crashed member minted is redirected to
// that member, also at no cluster-internal request, and following the
// redirect fails as fast as its refused connection.
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
		code  int
	}{
		{"a malformed ID", 1, "j999999", http.StatusNotFound},
		{"an ID no member minted", 1, "j00000000ffffffff-000001", http.StatusNotFound},
		{"an evicted ID, at its owner", 0, evicted, http.StatusNotFound},
		{"an ID the crashed member minted", 1, crashedID, http.StatusTemporaryRedirect},
	} {
		before := tc.jobHits()
		path := "/v1/runs/" + c.id
		hresp, err := noFollow.Get(tc.urls[c.entry] + path)
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != c.code {
			t.Errorf("%s: HTTP %d, want %d", c.what, hresp.StatusCode, c.code)
		}
		if loc := hresp.Header.Get("Location"); c.code == http.StatusTemporaryRedirect && loc != tc.urls[2]+path {
			t.Errorf("%s: redirected to %q, want the crashed member's %s", c.what, loc, tc.urls[2]+path)
		}
		after := tc.jobHits()
		after[c.entry]-- // the test's own request
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%s cost cluster-internal requests: per-daemon job hits %v -> %v", c.what, before, after)
		}

		start := time.Now()
		_, err = client.New(tc.urls[c.entry]).Job(ctx, c.id)
		elapsed := time.Since(start)
		var se *client.StatusError
		if c.code == http.StatusNotFound && !(errors.As(err, &se) && se.Code == http.StatusNotFound) {
			t.Errorf("%s: err = %v, want HTTP 404", c.what, err)
		}
		if c.code != http.StatusNotFound && (err == nil || client.IsStatusError(err)) {
			t.Errorf("%s: following the redirect errs %v, want the crashed member's refused connection", c.what, err)
		}
		if elapsed > time.Second {
			t.Errorf("%s took %v to fail, want well under the old 2s dead-peer probe", c.what, elapsed)
		}
	}
}

// TestPoolPollsTheOwner: a batch whose runs the entry forwards to other
// members is polled at those members, the ones RunResult.Peer names — each
// poll one request — and the entry serves no job status request at all.
func TestPoolPollsTheOwner(t *testing.T) {
	tc := newDynamicCluster(t, 3, 1)
	var specs []sweep.RunSpec
	var entry int
	for seed := int64(1); len(specs) < 2; seed++ {
		if seed > 200 {
			t.Fatal("no two specs owned off the entry in 200 seeds")
		}
		wire := tinySpec(fmt.Sprintf("polled-%d", seed), seed)
		spec, err := wire.ToRunSpec()
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) == 0 { // the first run picks the batch's entry
			entry = tc.entryIndex(t, []sweep.RunSpec{spec})
		}
		if tc.ownerIndex(t, wire) != entry {
			specs = append(specs, spec)
		}
	}

	pool, err := client.NewPool(tc.urls)
	if err != nil {
		t.Fatal(err)
	}
	results, err := pool.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil || r.Stats.Cycles == 0 {
			t.Errorf("run %s: %+v", r.Key, r)
		}
	}
	polls := func(i int) uint64 {
		n := uint64(0)
		for _, code := range []string{"200", "307", "404"} {
			n += tc.servers[i].metrics.httpRequests.With("GET /v1/runs/{id}", "GET", code).Value()
		}
		return n
	}
	owners := uint64(0)
	for i := range tc.servers {
		if i != entry {
			owners += polls(i)
		}
	}
	if polls(entry) != 0 || owners < uint64(len(specs)) {
		t.Errorf("the entry served %d job polls and the owners %d, want 0 and at least %d", polls(entry), owners, len(specs))
	}
}

// TestFigureResolvesAsOneBatch pins the figure read path to the batch one
// POST /v1/runs takes: on a cold replicated cluster one figure costs each
// member but its entry at most one record lookup and one forwarded
// submission, however many runs the figure declares. The text stays
// byte-identical to local output and every record lands on its rendezvous
// owner.
func TestFigureResolvesAsOneBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	tc := newDynamicCluster(t, 3, 2)
	scale := exp.FigureOptions{Quick: true, Cycles: 2_500, Warmup: 500}
	local := localFigure(t, "3", scale)
	fig, _ := exp.FigureByKey("3")
	specs := fig.Specs(scale.Options())
	entry := tc.entryIndex(t, specs)

	text, err := poolFigure("3", scale, nil, tc.urls...)
	if err != nil {
		t.Fatal(err)
	}
	if text != local {
		t.Errorf("cluster figure text differs from local output:\n--- cluster\n%s\n--- local\n%s", text, local)
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
				i, lookups, runs, len(specs))
		}
		forwards += runs
	}
	if forwards == 0 {
		t.Error("the figure forwarded nothing; the batch bound was not exercised")
	}

	for _, spec := range specs {
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

// entryIndex is the daemon a client.Pool over the whole cluster submits a
// batch of specs to: the first of a rendezvous order keyed by the batch's
// first run.
func (tc *testCluster) entryIndex(t testing.TB, specs []sweep.RunSpec) int {
	t.Helper()
	return tc.indexOf(t, cluster.RankedKey(specs[0].Key, tc.urls)[0])
}

// TestFigureResubmitsLostHandles: a figure's run still queued on its owner
// when the owner crashes is not lost with it. The pool's poll of the handle
// stops answering, the pool submits the spec again, and the entry's read
// path walks past the dead owner to a survivor: the figure finishes
// byte-identical to local output and no run fails.
func TestFigureResubmitsLostHandles(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	tc := (&testCluster{workers: 1}).start(t, 3, 1)
	scale := exp.FigureOptions{Quick: true, Cycles: 2_500, Warmup: 500}
	local := localFigure(t, "3", scale)
	fig, _ := exp.FigureByKey("3")
	specs := fig.Specs(scale.Options())
	entry := tc.entryIndex(t, specs)
	victim := -1
	for _, spec := range specs {
		fp, err := simstore.Fingerprint(spec)
		if err != nil {
			t.Fatal(err)
		}
		if owner := tc.indexOf(t, tc.servers[0].node.Ranked(fp)[0]); owner != entry {
			victim = owner
			break
		}
	}
	if victim < 0 {
		t.Fatal("the entry owns every run of the figure")
	}

	// A long run takes the victim's only worker, so the figure's runs it
	// owns stay queued behind it.
	blocker := tinySpec("blocker", 1)
	blocker.MeasureCycles = 150_000
	if _, err := client.New(tc.urls[victim]).ForwardRuns(context.Background(), api.RunRequest{Specs: []api.Spec{blocker}}); err != nil {
		t.Fatal(err)
	}
	vq := tc.servers[victim].queue
	waitFor(t, "the blocker to start", func() bool { return vq.Stats().Running == 1 })

	wait := goPoolFigure("3", scale, tc.urls...)
	waitFor(t, "a figure run to queue on its owner", func() bool { return vq.Stats().Queued > 0 })
	tc.crash(victim)

	text, err := wait()
	if err != nil {
		t.Fatalf("figure failed after its owner crashed: %v", err)
	}
	if text != local {
		t.Errorf("figure text differs from local output after its owner crashed:\n--- cluster\n%s\n--- local\n%s", text, local)
	}
	for i, s := range tc.servers {
		if qs := s.queue.Stats(); i != victim && qs.Failed != 0 {
			t.Errorf("daemon %d failed %d runs, want 0", i, qs.Failed)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
