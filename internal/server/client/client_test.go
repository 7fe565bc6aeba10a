package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
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

// fakeDaemon is a minimal simd stand-in for pool tests: it answers /healthz
// and runs figure "3" as an async job that reports one progress step and
// finishes on its second poll with text naming the figure (every daemon
// produces the same text, as determinism guarantees of real ones). Any other
// figure is unknown. starts counts the figure jobs it was asked to start.
func fakeDaemon(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var starts, polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	})
	mux.HandleFunc("GET /v1/figures/{key}", func(w http.ResponseWriter, r *http.Request) {
		starts.Add(1)
		if r.PathValue("key") != "3" {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(api.Error{Error: "unknown figure"})
			return
		}
		if r.URL.Query().Get("async") != "1" {
			t.Error("pool asked for a blocking figure; figure jobs are submit-then-poll")
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.FigureResponse{Key: "3", JobID: "fig-1"})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st := api.JobStatus{ID: r.PathValue("id"), Kind: "figure", Status: api.StatusRunning,
			Progress: &api.Progress{Done: 1, Total: 2}}
		if polls.Add(1)%2 == 0 {
			st.Status, st.FigureText = api.StatusDone, "figure 3 text"
			st.Progress = &api.Progress{Done: 2, Total: 2}
		}
		json.NewEncoder(w).Encode(st)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs, &starts
}

// TestPoolFigureStreamFailsOver: a figure goes to its first-ranked member
// while that member answers; with it dead, the same request is served by the
// next one with the same text instead of failing.
func TestPoolFigureStreamFailsOver(t *testing.T) {
	a, startsA := fakeDaemon(t)
	b, startsB := fakeDaemon(t)
	pool, err := NewPool([]string{a.URL, b.URL})
	if err != nil {
		t.Fatal(err)
	}
	order := cluster.RankedKey("figure/3", pool.Peers())
	first, firstStarts, otherStarts := a, startsA, startsB
	if order[0] == cluster.Normalize(b.URL) {
		first, firstStarts, otherStarts = b, startsB, startsA
	}

	st, served, err := pool.FigureStream(context.Background(), "3", api.FigureOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if served != order[0] || firstStarts.Load() != 1 || otherStarts.Load() != 0 {
		t.Errorf("figure served by %s (starts %d/%d), want the first-ranked %s alone",
			served, firstStarts.Load(), otherStarts.Load(), order[0])
	}
	want := st.FigureText

	first.Close()
	st, served, err = pool.FigureStream(context.Background(), "3", api.FigureOptions{}, nil)
	if err != nil {
		t.Fatalf("failover request failed: %v", err)
	}
	if served != order[1] {
		t.Errorf("after the first-ranked member died the figure was served by %s, want %s", served, order[1])
	}
	if st.Status != api.StatusDone || st.FigureText != want {
		t.Errorf("failover answer = %s %q, want done %q", st.Status, st.FigureText, want)
	}
}

// TestPoolFigureStreamStopsOn4xx: a daemon-answered 4xx is the request's own
// fault — every member would answer alike — so it returns at once without
// trying other peers.
func TestPoolFigureStreamStopsOn4xx(t *testing.T) {
	a, startsA := fakeDaemon(t)
	b, startsB := fakeDaemon(t)
	pool, err := NewPool([]string{a.URL, b.URL})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = pool.FigureStream(context.Background(), "99", api.FigureOptions{}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("unknown figure error = %v, want the daemon's HTTP 404", err)
	}
	if got := startsA.Load() + startsB.Load(); got != 1 {
		t.Errorf("unknown figure was asked of %d peers, want 1", got)
	}
}

// TestPoolFigureStreamPollsJobHandle: a figure is submit-then-poll — the job
// starts asynchronously and its handle is polled to completion, each change
// of progress reported once.
func TestPoolFigureStreamPollsJobHandle(t *testing.T) {
	hs, starts := fakeDaemon(t)
	pool, err := NewPool([]string{hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	st, served, err := pool.FigureStream(context.Background(), "3", api.FigureOptions{}, func(p *api.Progress) {
		seen = append(seen, p.Done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != api.StatusDone || st.FigureText == "" || served != cluster.Normalize(hs.URL) {
		t.Errorf("figure = %s %q via %s, want done with text via %s", st.Status, st.FigureText, served, hs.URL)
	}
	if starts.Load() != 1 {
		t.Errorf("figure job started %d times, want 1", starts.Load())
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("progress reports = %v, want [1 2]", seen)
	}
}

// TestPoolMembershipRefresh: a pool seeded with one daemon adopts the full
// member list from GET /v1/cluster/membership — a member that joined after
// the pool was built is used, dead/left ones are dropped.
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
	// The first request refreshes (nothing was fetched yet), so the figure is
	// served by a member the pool was never told about; the seed itself
	// serves no figures.
	_, served, err := pool.FigureStream(context.Background(), "3", api.FigureOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{cluster.Normalize(a.URL), cluster.Normalize(b.URL)}
	sort.Strings(want)
	if got := pool.Peers(); !reflect.DeepEqual(got, want) {
		t.Errorf("pool peers after refresh = %v, want %v (alive + suspect only)", got, want)
	}
	if served != want[0] && served != want[1] {
		t.Errorf("figure served by %s, want one of the adopted members %v", served, want)
	}

	// A later view with nothing usable must not wipe the pool.
	view.Store(&api.MembershipView{Epoch: 8, Members: []api.MemberEntry{{Addr: "http://127.0.0.1:1", Status: "dead"}}})
	pool.mu.Lock()
	pool.lastRefresh = time.Time{}
	pool.mu.Unlock()
	// The seed is no longer in the member list, so refresh goes through a
	// member; neither serves the endpoint, so the old list must survive.
	pool.maybeRefresh(context.Background())
	if got := pool.Peers(); len(got) != 2 {
		t.Errorf("pool peers after failed refresh = %v, want the previous 2", got)
	}
}

// TestRawAnswersCheckStatsChecksums: ForwardRuns and ProbeRecords pass a
// member's statistics on as bytes only when each matches its checksum in
// the answer's api.StatsCRCHeader; an answer whose header is missing,
// short or wrong for any result is a daemon-answered error.
func TestRawAnswersCheckStatsChecksums(t *testing.T) {
	stats := []byte(`{"Cycles":123456}`)
	good := strconv.FormatUint(uint64(simstore.Checksum(stats)), 16)
	bad := strconv.FormatUint(uint64(simstore.Checksum([]byte(`{"Cycles":923456}`))), 16)
	runs := fmt.Sprintf(`{"results":[{"fingerprint":"ab","cached":true,"status":"done","stats":%s},{"fingerprint":"cd","cached":false,"status":"queued","job_id":"j1"}]}`, stats)
	lookup := fmt.Sprintf(`{"records":[{"fingerprint":"ab","stats":%s},{"fingerprint":"cd","stats":%s}]}`, stats, stats)
	for _, c := range []struct {
		name, body, crcs string
		ok               bool
	}{
		{"runs matching", runs, good + ",", true},
		{"runs wrong", runs, bad + ",", false},
		{"runs missing", runs, "", false},
		{"runs short", runs, good, false},
		{"runs for the result without statistics", runs, good + "," + good, false},
		{"lookup matching", lookup, good + "," + good, true},
		{"lookup one wrong", lookup, good + "," + bad, false},
		{"lookup one missing", lookup, good + ",", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set(api.StatsCRCHeader, c.crcs)
				fmt.Fprint(w, c.body)
			}))
			defer hs.Close()
			var got []uint32
			var err error
			if c.body == runs {
				var resp *api.RawRunResponse
				if resp, err = New(hs.URL).ForwardRuns(context.Background(), api.RunRequest{}); err == nil {
					got = []uint32{resp.Results[0].StatsCRC, resp.Results[1].StatsCRC}
				}
			} else {
				var resp *api.RawLookupResponse
				if resp, err = New(hs.URL).ProbeRecords(context.Background(), api.LookupRequest{}); err == nil {
					got = []uint32{resp.Records[0].StatsCRC, resp.Records[1].StatsCRC}
				}
			}
			if c.ok != (err == nil) || err != nil && !IsStatusError(err) {
				t.Fatalf("error %v, want ok %v or a status error", err, c.ok)
			}
			if c.ok && got[0] != simstore.Checksum(stats) {
				t.Errorf("checksums %x, want the first %x", got, simstore.Checksum(stats))
			}
		})
	}
}
