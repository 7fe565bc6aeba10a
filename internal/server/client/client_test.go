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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/simstore"
	"repro/internal/sweep"
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
		json.NewEncoder(w).Encode(api.JobStatus{ID: "j000001", Status: api.StatusRunning})
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
// every open job handle is polled on GET /v1/runs/{id} until terminal, at
// the member its result names as Peer: the entry serves no poll.
func TestRunsWaitsByPollingHandles(t *testing.T) {
	var polls atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := api.JobStatus{ID: strings.TrimPrefix(r.URL.Path, "/v1/runs/"), Status: api.StatusRunning}
		if polls.Add(1) >= 2 {
			st.Status, st.Stats = api.StatusDone, &gpu.RunStats{Cycles: 2}
		}
		json.NewEncoder(w).Encode(st)
	}))
	defer owner.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			t.Errorf("Runs sent query %q; waiting is client-side only", r.URL.RawQuery)
		}
		json.NewEncoder(w).Encode(api.RunResponse{Results: []api.RunResult{
			{Key: "hit", Status: api.StatusDone, Cached: true, Stats: &gpu.RunStats{Cycles: 1}},
			{Key: "miss", Status: api.StatusQueued, JobID: "job-1", Peer: owner.URL},
		}})
	})
	entry := httptest.NewServer(mux)
	defer entry.Close()

	resp, err := New(entry.URL).Runs(context.Background(), api.RunRequest{Specs: make([]api.Spec, 2)}, true)
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
		t.Errorf("job handle polled %d times at its owner, want 2 (the hit needs none)", got)
	}
}

// TestOnlyForwardRunsIsMarkedForwarded: api.ForwardedHeader rides the one
// request whose handler reads it, ForwardRuns, and no other call.
func TestOnlyForwardRunsIsMarkedForwarded(t *testing.T) {
	var mu sync.Mutex
	var marked []string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(api.ForwardedHeader) != "" {
			mu.Lock()
			marked = append(marked, r.Method+" "+r.URL.Path)
			mu.Unlock()
		}
		fmt.Fprint(w, `{"status":"done"}`)
	}))
	defer hs.Close()
	c, ctx := New(hs.URL), context.Background()
	for name, call := range map[string]func() error{
		"Health":        func() error { _, err := c.Health(ctx); return err },
		"Runs":          func() error { _, err := c.Runs(ctx, api.RunRequest{}, true); return err },
		"Job":           func() error { _, err := c.Job(ctx, "j1"); return err },
		"WaitJob":       func() error { _, err := c.WaitJob(ctx, "j1", 0); return err },
		"Cancel":        func() error { _, err := c.Cancel(ctx, "j1"); return err },
		"ForwardRuns":   func() error { _, err := c.ForwardRuns(ctx, api.RunRequest{}); return err },
		"LookupRecords": func() error { _, err := c.LookupRecords(ctx, api.LookupRequest{}); return err },
		"ProbeRecords":  func() error { _, err := c.ProbeRecords(ctx, api.LookupRequest{}); return err },
		"Replicate":     func() error { _, err := c.Replicate(ctx, api.ReplicateRequest{}); return err },
	} {
		if err := call(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if want := []string{"POST /v1/runs"}; !reflect.DeepEqual(marked, want) {
		t.Errorf("requests marked %s: %v, want %v", api.ForwardedHeader, marked, want)
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

// fakeDaemon is a minimal simd stand-in for pool tests. It answers /healthz
// and POST /v1/runs: a run keyed "hit" is an inline store hit, one keyed
// "bad" makes the whole request a 400, and any other run gets a job handle
// that is running on its first poll and done on its second, with statistics
// naming the run (every daemon answers alike, as determinism guarantees of
// real ones). A run keyed "lost" gets, on its first submission only, a
// handle nobody knows (404). It records each request's keys.
type fakeDaemon struct {
	*httptest.Server
	mu       sync.Mutex
	requests [][]string     // the keys of each POST /v1/runs, in order
	polls    map[string]int // GET /v1/runs/{id} count per job ID
	lostOnce bool
}

func newFakeDaemon(t *testing.T) *fakeDaemon {
	t.Helper()
	d := &fakeDaemon{polls: map[string]int{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var req api.RunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("fake daemon: bad request body: %v", err)
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		var keys []string
		resp := api.RunResponse{}
		for _, spec := range req.Specs {
			keys = append(keys, spec.Key)
			res := api.RunResult{Key: spec.Key, Status: api.StatusQueued, JobID: "job-" + spec.Key}
			switch {
			case spec.Key == "bad":
				w.WriteHeader(http.StatusBadRequest)
				json.NewEncoder(w).Encode(api.Error{Error: "spec refused"})
				d.requests = append(d.requests, keys)
				return
			case spec.Key == "hit":
				res = api.RunResult{Key: spec.Key, Status: api.StatusDone, Cached: true, Stats: statsOf(spec.Key)}
			case spec.Key == "lost" && !d.lostOnce:
				d.lostOnce = true
				res.JobID = "job-nobody-knows"
			}
			resp.Results = append(resp.Results, res)
		}
		d.requests = append(d.requests, keys)
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		d.mu.Lock()
		d.polls[id]++
		n := d.polls[id]
		d.mu.Unlock()
		if id == "job-nobody-knows" {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(api.Error{Error: "no job"})
			return
		}
		st := api.JobStatus{ID: id, Status: api.StatusRunning}
		if n >= 2 {
			st.Status, st.Stats = api.StatusDone, statsOf(strings.TrimPrefix(id, "job-"))
		}
		json.NewEncoder(w).Encode(st)
	})
	d.Server = httptest.NewServer(mux)
	t.Cleanup(d.Close)
	return d
}

// submitted returns the keys of every batch the daemon was sent.
func (d *fakeDaemon) submitted() [][]string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][]string(nil), d.requests...)
}

// statsOf is the fake statistics of the run keyed key.
func statsOf(key string) *gpu.RunStats {
	return &gpu.RunStats{Cycles: uint64(len(key)), Instructions: uint64(key[len(key)-1])}
}

// runSpecs declares one (empty) run per key.
func runSpecs(keys ...string) []sweep.RunSpec {
	specs := make([]sweep.RunSpec, len(keys))
	for i, k := range keys {
		specs[i].Key = k
	}
	return specs
}

// checkResults asserts each result is its run's fake statistics.
func checkResults(t *testing.T, results []sweep.Result, keys ...string) {
	t.Helper()
	for i, k := range keys {
		if results[i].Err != nil || !reflect.DeepEqual(results[i].Stats, *statsOf(k)) {
			t.Errorf("result %d = %+v, want the statistics of %q", i, results[i], k)
		}
	}
}

// TestPoolExecFailsOver: a batch goes to its first-ranked member while that
// member answers; with it dead, the same batch is served by the next one
// instead of failing.
func TestPoolExecFailsOver(t *testing.T) {
	a, b := newFakeDaemon(t), newFakeDaemon(t)
	pool, err := NewPool([]string{a.URL, b.URL})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"r1", "r2"}
	first, other := a, b
	if cluster.RankedKey(keys[0], pool.Peers())[0] == cluster.Normalize(b.URL) {
		first, other = b, a
	}

	results, err := pool.Run(context.Background(), runSpecs(keys...))
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, keys...)
	if len(first.submitted()) != 1 || len(other.submitted()) != 0 {
		t.Errorf("batch submitted %d/%d times to the first-ranked/other member, want 1/0",
			len(first.submitted()), len(other.submitted()))
	}

	first.Close()
	results, err = pool.Run(context.Background(), runSpecs(keys...))
	if err != nil {
		t.Fatalf("failover batch failed: %v", err)
	}
	checkResults(t, results, keys...)
	if len(other.submitted()) != 1 {
		t.Errorf("after the first-ranked member died the next one was sent %d batches, want 1", len(other.submitted()))
	}
}

// TestPoolExecStopsOn4xx: a daemon-answered 4xx is the request's own fault —
// every member would answer alike — so it returns at once without trying
// other peers.
func TestPoolExecStopsOn4xx(t *testing.T) {
	a, b := newFakeDaemon(t), newFakeDaemon(t)
	pool, err := NewPool([]string{a.URL, b.URL})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pool.Run(context.Background(), runSpecs("r1", "bad"))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("refused batch error = %v, want the daemon's HTTP 400", err)
	}
	if got := len(a.submitted()) + len(b.submitted()); got != 1 {
		t.Errorf("refused batch was sent to %d peers, want 1", got)
	}
}

// TestPoolExecPollsJobHandles: a batch is submit-then-poll — store hits are
// taken inline, every job handle is polled until it ends, and progress fires
// once per settled run.
func TestPoolExecPollsJobHandles(t *testing.T) {
	d := newFakeDaemon(t)
	pool, err := NewPool([]string{d.URL})
	if err != nil {
		t.Fatal(err)
	}
	var seen []sweep.Progress
	pool.OnProgress = func(p sweep.Progress) { seen = append(seen, p) }
	keys := []string{"hit", "r1", "r2"}
	results, err := pool.Run(context.Background(), runSpecs(keys...))
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, keys...)
	want := []sweep.Progress{{Done: 1, Total: 3, Key: "hit"}, {Done: 2, Total: 3, Key: "r1"}, {Done: 3, Total: 3, Key: "r2"}}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("progress reports = %+v, want %+v", seen, want)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if want := map[string]int{"job-r1": 2, "job-r2": 2}; !reflect.DeepEqual(d.polls, want) {
		t.Errorf("polls per handle = %v, want %v (the hit needs none)", d.polls, want)
	}
}

// TestPoolExecResubmitsLostHandle: a handle no member knows is not the
// run's failure; the pool submits that run again, alone, and takes the new
// answer.
func TestPoolExecResubmitsLostHandle(t *testing.T) {
	d := newFakeDaemon(t)
	pool, err := NewPool([]string{d.URL})
	if err != nil {
		t.Fatal(err)
	}
	settled := 0
	pool.OnProgress = func(sweep.Progress) { settled++ }
	keys := []string{"r1", "lost"}
	results, err := pool.Run(context.Background(), runSpecs(keys...))
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, keys...)
	if got, want := d.submitted(), [][]string{{"r1", "lost"}, {"lost"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("batches submitted = %v, want %v", got, want)
	}
	if settled != 2 {
		t.Errorf("progress fired %d times for 2 runs", settled)
	}
}

// TestPoolMembershipRefresh: a pool seeded with one daemon adopts the full
// member list from GET /v1/cluster/membership — a member that joined after
// the pool was built is used, dead/left ones are dropped.
func TestPoolMembershipRefresh(t *testing.T) {
	a, b := newFakeDaemon(t), newFakeDaemon(t)
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
	// The first batch refreshes (nothing was fetched yet), so it is served
	// by a member the pool was never told about; the seed itself serves no
	// runs.
	if _, err := pool.Run(context.Background(), runSpecs("r1")); err != nil {
		t.Fatal(err)
	}
	want := []string{cluster.Normalize(a.URL), cluster.Normalize(b.URL)}
	sort.Strings(want)
	if got := pool.Peers(); !reflect.DeepEqual(got, want) {
		t.Errorf("pool peers after refresh = %v, want %v (alive + suspect only)", got, want)
	}
	if n := len(a.submitted()) + len(b.submitted()); n != 1 {
		t.Errorf("the adopted members were sent %d batches, want 1", n)
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

// TestAnswersOwnTheirBytes: answers are read into recycled buffers, so
// nothing a call returns may alias one. Answer A is decoded, answer B of
// the same length is read next (into A's buffer, once it is recycled), and
// A's strings, raw statistics and checksums, and an error's message, are
// still what A's body said.
func TestAnswersOwnTheirBytes(t *testing.T) {
	answer := func(c byte) (string, string) {
		stats := fmt.Sprintf(`{"Cycles":%s}`, strings.Repeat(string(c), 6))
		body := fmt.Sprintf(`{"results":[{"key":"%[1]s","fingerprint":"%[1]s","cached":true,"status":"done","stats":%s,"peer":"http://%[1]s"}]}`,
			strings.Repeat(string(c), 8), stats)
		return body, stats
	}
	bodyA, statsA := answer('1')
	bodyB, _ := answer('2')
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if r.URL.Path != "/v1/runs" {
			msg := map[bool]string{true: "first failure", false: "other failure"}[n%2 == 1]
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"error":%q}`+"\n", msg)
			return
		}
		body, stats := answer(map[bool]byte{true: '1', false: '2'}[n%2 == 1])
		w.Header().Set(api.StatsCRCHeader, strconv.FormatUint(uint64(simstore.Checksum([]byte(stats))), 16))
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		fmt.Fprint(w, body)
	}))
	defer hs.Close()
	if len(bodyA) != len(bodyB) {
		t.Fatalf("answers of %d and %d bytes; the test needs one length", len(bodyA), len(bodyB))
	}
	c, ctx := New(hs.URL), context.Background()
	for round := 0; round < 5; round++ {
		calls.Store(0)
		a, err := c.ForwardRuns(ctx, api.RunRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ForwardRuns(ctx, api.RunRequest{}); err != nil {
			t.Fatal(err)
		}
		r := a.Results[0]
		if r.Key != "11111111" || r.Fingerprint != "11111111" || r.Peer != "http://11111111" ||
			string(r.Stats) != statsA || r.StatsCRC != simstore.Checksum([]byte(statsA)) {
			t.Fatalf("round %d: answer A changed when B was read: %+v (stats %s)", round, r, r.Stats)
		}

		calls.Store(0)
		_, errA := c.Job(ctx, "j1")
		_, errB := c.Job(ctx, "j2")
		var se *StatusError
		if !errors.As(errA, &se) || se.Msg != "first failure" || errB == nil {
			t.Fatalf("round %d: error A read %v after error B (%v)", round, errA, errB)
		}
	}
}
