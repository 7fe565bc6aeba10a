package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/simstore"
)

// TestWaitJobCancelMidPoll: cancelling the context between polls must stop
// the poll loop promptly with the context's error, not hang or return a
// bogus status.
func TestWaitJobCancelMidPoll(t *testing.T) {
	var polls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) == 2 {
			// Cancel while the client is mid-loop; the job never finishes.
			cancel()
		}
		json.NewEncoder(w).Encode(api.JobStatus{ID: "j000001", Kind: "run", Status: api.StatusRunning})
	}))
	defer hs.Close()

	done := make(chan struct{})
	var st *api.JobStatus
	var err error
	go func() {
		defer close(done)
		st, err = New(hs.URL).WaitJob(ctx, "j000001", 5*time.Millisecond)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitJob did not return after its context was cancelled")
	}
	if st != nil {
		t.Errorf("cancelled WaitJob returned a status: %+v", st)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled WaitJob error = %v, want context.Canceled", err)
	}
	if polls.Load() < 2 {
		t.Errorf("server saw %d polls, want at least 2", polls.Load())
	}
}

// TestRunsWaitsByPollingHandles: a waited Runs is submit + poll. The POST
// carries no wait parameter, inline store hits are taken as they are, and
// every open job handle is polled on GET /v1/runs/{id} until terminal.
func TestRunsWaitsByPollingHandles(t *testing.T) {
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			t.Errorf("Runs sent query %q; waiting is client-side only", r.URL.RawQuery)
		}
		json.NewEncoder(w).Encode(api.RunResponse{Results: []api.RunResult{
			{Key: "hit", Status: api.StatusDone, Cached: true, Stats: &gpu.RunStats{Cycles: 1}},
			{Key: "miss", Status: api.StatusQueued, JobID: "job-1"},
		}})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st := api.JobStatus{ID: r.PathValue("id"), Kind: "run", Status: api.StatusRunning}
		if polls.Add(1) >= 2 {
			st.Status, st.Stats = api.StatusDone, &gpu.RunStats{Cycles: 2}
		}
		json.NewEncoder(w).Encode(st)
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	resp, err := New(hs.URL).Runs(context.Background(), api.RunRequest{Specs: make([]api.Spec, 2)}, true)
	if err != nil {
		t.Fatal(err)
	}
	hit, miss := resp.Results[0], resp.Results[1]
	if !hit.Cached || hit.Stats == nil || hit.Stats.Cycles != 1 {
		t.Errorf("inline hit = %+v, want it untouched", hit)
	}
	if miss.Status != api.StatusDone || miss.Stats == nil || miss.Stats.Cycles != 2 {
		t.Errorf("polled miss = %+v, want done with the job's statistics", miss)
	}
	if got := polls.Load(); got != 2 {
		t.Errorf("job handle polled %d times, want 2 (the hit needs none)", got)
	}
}

func TestStatusErrorClassification(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(api.Error{Error: "no job"})
	}))
	defer hs.Close()
	_, err := New(hs.URL).Job(context.Background(), "j1")
	if !IsStatusError(err) {
		t.Errorf("daemon-answered 404 not classified as StatusError: %v", err)
	}
	hs.Close()
	_, err = New(hs.URL).Job(context.Background(), "j1")
	if err == nil || IsStatusError(err) {
		t.Errorf("transport failure classified as StatusError: %v", err)
	}
}

// fakeDaemon is a minimal simd stand-in for pool routing tests: it answers
// /healthz and records every spec POSTed to /v1/runs.
func fakeDaemon(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var runs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var req api.RunRequest
		json.NewDecoder(r.Body).Decode(&req)
		resp := api.RunResponse{Results: make([]api.RunResult, len(req.Specs))}
		for i, s := range req.Specs {
			runs.Add(1)
			resp.Results[i] = api.RunResult{Key: s.Key, Status: api.StatusDone}
		}
		json.NewEncoder(w).Encode(resp)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs, &runs
}

// TestPoolRoutesToOwnerAndFailsOver: every spec goes to its rendezvous
// owner while all peers are healthy; with the owner dead, the request lands
// on the next-ranked peer instead of failing.
func TestPoolRoutesToOwnerAndFailsOver(t *testing.T) {
	a, runsA := fakeDaemon(t)
	b, runsB := fakeDaemon(t)
	pool, err := NewPool([]string{a.URL, b.URL})
	if err != nil {
		t.Fatal(err)
	}

	spec := api.Spec{Key: "r", Benchmarks: []string{"VA"}, MeasureCycles: 3000, Seed: 1}
	ranked := pool.rankedForSpec(spec)
	if len(ranked) != 2 {
		t.Fatalf("ranked %d peers, want 2", len(ranked))
	}
	resp, err := pool.Runs(context.Background(), api.RunRequest{Specs: []api.Spec{spec}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[0].Peer; got != ranked[0] {
		t.Errorf("spec answered by %s, want owner %s", got, ranked[0])
	}
	ownerRuns, otherRuns := runsA, runsB
	if ranked[0] == cluster.Normalize(b.URL) {
		ownerRuns, otherRuns = runsB, runsA
	}
	if ownerRuns.Load() != 1 || otherRuns.Load() != 0 {
		t.Errorf("owner ran %d specs, other %d; want 1/0", ownerRuns.Load(), otherRuns.Load())
	}

	// Kill the owner: the same spec must fail over to the survivor.
	if ranked[0] == cluster.Normalize(a.URL) {
		a.Close()
	} else {
		b.Close()
	}
	pool.HealthTTL = time.Nanosecond // forget the cached good probe
	resp, err = pool.Runs(context.Background(), api.RunRequest{Specs: []api.Spec{spec}}, true)
	if err != nil {
		t.Fatalf("failover request failed: %v", err)
	}
	if got := resp.Results[0].Peer; got != ranked[1] {
		t.Errorf("after owner death spec answered by %s, want runner-up %s", got, ranked[1])
	}
}

// TestPoolRankingMatchesCluster: the pool and the daemons must agree on
// ownership (both defer to internal/cluster over the normalized peer list).
func TestPoolRankingMatchesCluster(t *testing.T) {
	peers := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	pool, err := NewPool(peers)
	if err != nil {
		t.Fatal(err)
	}
	spec := api.Spec{Benchmarks: []string{"VA"}, MeasureCycles: 5000, Seed: 9}
	rs, err := spec.ToRunSpec()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := simstore.Fingerprint(rs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pool.rankedForSpec(spec), cluster.Ranked(fp, peers); !reflect.DeepEqual(got, want) {
		t.Errorf("pool ranking %v != cluster ranking %v", got, want)
	}
}

// TestPoolMembershipRefresh: a pool seeded with one daemon adopts the full
// member list from GET /v1/cluster/membership once the TTL lapses, drops
// dead/left members, and records the epoch.
func TestPoolMembershipRefresh(t *testing.T) {
	a, _ := fakeDaemon(t)
	b, _ := fakeDaemon(t)
	var view atomic.Pointer[api.MembershipView]
	view.Store(&api.MembershipView{
		Epoch: 7,
		Members: []api.MemberEntry{
			{Addr: cluster.Normalize(a.URL), Self: true, Status: "alive"},
			{Addr: cluster.Normalize(b.URL), Status: "suspect"},
			{Addr: "http://127.0.0.1:1", Status: "dead"},
			{Addr: "http://127.0.0.1:2", Status: "left"},
		},
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/membership", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(view.Load())
	})
	seed := httptest.NewServer(mux)
	t.Cleanup(seed.Close)

	pool, err := NewPool([]string{seed.URL})
	if err != nil {
		t.Fatal(err)
	}
	pool.MembershipTTL = time.Nanosecond
	pool.maybeRefresh(context.Background())

	want := []string{cluster.Normalize(a.URL), cluster.Normalize(b.URL)}
	got := pool.Peers()
	if len(got) != 2 || (got[0] != want[0] && got[0] != want[1]) {
		t.Errorf("pool peers after refresh = %v, want %v (alive + suspect only)", got, want)
	}
	if pool.Epoch() != 7 {
		t.Errorf("pool epoch = %d, want 7", pool.Epoch())
	}

	// A later view with nothing routable must not wipe the pool.
	view.Store(&api.MembershipView{Epoch: 8, Members: []api.MemberEntry{{Addr: "http://127.0.0.1:1", Status: "dead"}}})
	pool.mu.Lock()
	pool.lastRefresh = time.Time{}
	pool.mu.Unlock()
	// The seed is no longer in the routing set, so refresh goes through a
	// member; neither serves the endpoint, so the old set must survive.
	pool.maybeRefresh(context.Background())
	if got := pool.Peers(); len(got) != 2 {
		t.Errorf("pool peers after failed refresh = %v, want the previous 2", got)
	}
}

// TestPoolRunsPollsJobHandle: a waited Runs call submits without waiting
// and polls the returned job handle to completion — the /v1/runs request
// itself never blocks for the simulation.
func TestPoolRunsPollsJobHandle(t *testing.T) {
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			t.Error("pool submitted with a wait parameter; submission never blocks server-side")
		}
		json.NewEncoder(w).Encode(api.RunResponse{Results: []api.RunResult{
			{Key: "h", Status: api.StatusQueued, JobID: "job-1"},
		}})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st := api.JobStatus{ID: r.PathValue("id"), Status: api.StatusRunning}
		if polls.Add(1) >= 2 {
			st.Status = api.StatusDone
		}
		json.NewEncoder(w).Encode(st)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	pool, err := NewPool([]string{hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	pool.PollInterval = time.Millisecond
	resp, err := pool.Runs(context.Background(), api.RunRequest{Specs: []api.Spec{{Key: "h", Benchmarks: []string{"VA"}, MeasureCycles: 3000}}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Status != api.StatusDone {
		t.Errorf("result status = %s, want done", resp.Results[0].Status)
	}
	if polls.Load() < 2 {
		t.Errorf("job handle polled %d times, want >= 2", polls.Load())
	}
}
