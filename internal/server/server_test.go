package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/workload"
)

// newTestServer starts a Server over a fresh store and returns a client for
// it. Everything is torn down with the test.
func newTestServer(t *testing.T, workers int) (*Server, *client.Client) {
	t.Helper()
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, client.New(hs.URL)
}

// figureSync is the blocking GET /v1/figures/{key}: the daemon holds the
// request until the figure job is terminal.
func figureSync(base, key string, opt api.FigureOptions) (*api.FigureResponse, error) {
	resp, err := http.Get(base + "/v1/figures/" + key + "?" + opt.Query().Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET figure %s: HTTP %d", key, resp.StatusCode)
	}
	var fr api.FigureResponse
	return &fr, json.NewDecoder(resp.Body).Decode(&fr)
}

// cancelJob is POST /v1/jobs/{id}/cancel on c's daemon: the status the
// cancel left the job in.
func cancelJob(c *client.Client, id string) (*api.JobStatus, error) {
	resp, err := http.Post(c.BaseURL+"/v1/jobs/"+url.PathEscape(id)+"/cancel", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cancel %s: HTTP %d", id, resp.StatusCode)
	}
	var st api.JobStatus
	return &st, json.NewDecoder(resp.Body).Decode(&st)
}

func tinySpec(key string, seed int64) api.Spec {
	return api.Spec{
		Key:           key,
		Benchmarks:    []string{"VA"},
		Mode:          "shared",
		Seed:          seed,
		MeasureCycles: 3_000,
		WarmupCycles:  500,
	}
}

// TestRunCacheHitByteIdentical is the end-to-end determinism/caching proof:
// posting the same RunSpec twice returns byte-identical RunStats, with the
// second response flagged as a store hit and measurably faster (it performs
// no simulation — just a store read).
func TestRunCacheHitByteIdentical(t *testing.T) {
	_, c := newTestServer(t, 2)
	ctx := context.Background()

	start := time.Now()
	first, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{tinySpec("first", 1)}}, true)
	if err != nil {
		t.Fatal(err)
	}
	missElapsed := time.Since(start)
	r1 := first.Results[0]
	if r1.Cached {
		t.Fatal("first submission of a spec reported as cached")
	}
	if r1.Status != api.StatusDone || r1.Stats == nil {
		t.Fatalf("first run: status=%s stats=%v error=%q", r1.Status, r1.Stats != nil, r1.Error)
	}
	if r1.Stats.Instructions == 0 {
		t.Fatal("first run made no progress")
	}

	// Same run, different name: the fingerprint ignores naming.
	start = time.Now()
	second, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{tinySpec("renamed", 1)}}, true)
	if err != nil {
		t.Fatal(err)
	}
	hitElapsed := time.Since(start)
	r2 := second.Results[0]
	if !r2.Cached {
		t.Fatal("second submission of the same spec was not served from the store")
	}
	if r2.Fingerprint != r1.Fingerprint {
		t.Errorf("fingerprints differ across submissions: %s vs %s", r1.Fingerprint, r2.Fingerprint)
	}

	stats1, _ := json.Marshal(r1.Stats)
	stats2, _ := json.Marshal(r2.Stats)
	if string(stats1) != string(stats2) {
		t.Errorf("cached stats not byte-identical to computed stats:\n%s\n%s", stats1, stats2)
	}
	if hitElapsed >= missElapsed {
		t.Errorf("cache hit (%v) not faster than the simulating miss (%v)", hitElapsed, missElapsed)
	}
}

// TestBatchDedupSharesExecution: equal specs in one batch (or from two
// clients) share a single job.
func TestBatchDedupSharesExecution(t *testing.T) {
	srv, c := newTestServer(t, 2)
	ctx := context.Background()

	resp, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{
		tinySpec("a", 42), tinySpec("b", 42), tinySpec("other", 43),
	}}, true)
	if err != nil {
		t.Fatal(err)
	}
	a, b, other := resp.Results[0], resp.Results[1], resp.Results[2]
	if a.JobID == "" || a.JobID != b.JobID {
		t.Errorf("identical specs got jobs %q and %q, want one shared job", a.JobID, b.JobID)
	}
	if other.JobID == a.JobID {
		t.Error("distinct spec shared the job of a different spec")
	}
	if a.Status != api.StatusDone || b.Status != api.StatusDone {
		t.Fatalf("shared job did not complete: %s / %s", a.Status, b.Status)
	}
	sa, _ := json.Marshal(a.Stats)
	sb, _ := json.Marshal(b.Stats)
	if string(sa) != string(sb) {
		t.Error("shared execution returned different stats to its two submitters")
	}
	if got := srv.queue.Stats().DedupHits; got != 1 {
		t.Errorf("dedup hits = %d, want 1", got)
	}
	// Only one simulation ran; the other two results were a share and a run.
	if got := srv.queue.Stats().Executed; got != 2 {
		t.Errorf("executed %d simulations, want 2 (one per distinct spec)", got)
	}
}

// TestJobStatus covers GET /v1/runs/{id}.
func TestJobStatus(t *testing.T) {
	_, c := newTestServer(t, 1)
	ctx := context.Background()

	resp, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{tinySpec("ev", 7)}}, false)
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Results[0].JobID
	if id == "" {
		t.Fatal("miss did not return a job ID")
	}

	st, err := c.WaitJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != api.StatusDone || st.Stats == nil || st.Kind != "run" {
		t.Fatalf("job status = %+v, want done run with stats", st)
	}
	if _, err := c.Job(ctx, "j999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job error = %v, want HTTP 404", err)
	}
}

// TestCancelQueuedJob: with one worker busy, a queued job can be cancelled
// before it ever simulates.
func TestCancelQueuedJob(t *testing.T) {
	_, c := newTestServer(t, 1)
	ctx := context.Background()

	// A moderately long run occupies the only worker...
	long := tinySpec("long", 1)
	long.MeasureCycles = 60_000
	resp, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{long, tinySpec("victim", 2)}}, false)
	if err != nil {
		t.Fatal(err)
	}
	victim := resp.Results[1].JobID

	st, err := cancelJob(c, victim)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != api.StatusCancelled {
		t.Fatalf("cancelled queued job reports %q, want cancelled", st.Status)
	}
	// The long job is unaffected and completes.
	final, err := c.WaitJob(ctx, resp.Results[0].JobID, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.StatusDone {
		t.Errorf("long job = %s, want done", final.Status)
	}
}

func TestSpecValidation(t *testing.T) {
	srv, c := newTestServer(t, 1)
	ctx := context.Background()

	// A bad spec anywhere in a batch must reject the whole batch before any
	// spec is enqueued: no orphan jobs simulating behind a 400 response.
	good := tinySpec("good", 1)
	good.MeasureCycles = 60_000
	if _, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{
		good, {Benchmarks: []string{"NOPE"}, MeasureCycles: 1000},
	}}, false); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("batch with a bad spec: err = %v, want HTTP 400", err)
	}
	time.Sleep(100 * time.Millisecond)
	if qs := srv.queue.Stats(); qs.Queued != 0 || qs.Running != 0 || qs.Executed != 0 {
		t.Errorf("rejected batch left work behind: %+v", qs)
	}

	narrow := config.Baseline()
	narrow.ChannelBytes = 16 // 9-flit replies against 8-flit buffers
	bad := []api.Spec{
		{Benchmarks: []string{"NOPE"}, MeasureCycles: 1000},
		{Benchmarks: []string{"VA"}, Config: &narrow, MeasureCycles: 1000},
		{Benchmarks: []string{"VA"}}, // no cycles
		{MeasureCycles: 1000},        // no workload
		{Benchmarks: []string{"VA"}, Mode: "sideways", MeasureCycles: 1000},
		{Workloads: []workload.Spec{{Name: "x", Abbr: "X", Kernels: 1, ALULatency: 1, FrontierJitterLines: -1}}, MeasureCycles: 1000},
	}
	for i, spec := range bad {
		if _, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, false); err == nil ||
			!strings.Contains(err.Error(), "400") {
			t.Errorf("bad spec %d: err = %v, want HTTP 400", i, err)
		}
	}
	if _, err := figureSync(c.BaseURL, "99", api.FigureOptions{}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown figure err = %v, want HTTP 404", err)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, c := newTestServer(t, 3)
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 {
		t.Errorf("health = %+v", h)
	}
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		buf.WriteString(sc.Text() + "\n")
	}
	for _, want := range []string{"simd_workers 3", "simd_store_hits_total", "simd_jobs_running"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestFigureMatchesLocalAndCaches is the figure-level acceptance proof: the
// server's figure text is byte-identical to the local harness output for
// the same options, and regenerating the figure is served entirely from the
// store.
func TestFigureMatchesLocalAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	_, c := newTestServer(t, 0)
	ctx := context.Background()

	wireOpts := api.FigureOptions{Quick: true, Cycles: 2_500, Warmup: 500}

	// Local reference, exactly as cmd/paperfigs would produce it.
	fig, _ := exp.FigureByKey("3")
	local, err := fig.Run(wireOpts.Options())
	if err != nil {
		t.Fatal(err)
	}

	remote, err := figureSync(c.BaseURL, "3", wireOpts)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Text != local {
		t.Errorf("server figure text differs from local harness output:\n--- server\n%s\n--- local\n%s",
			remote.Text, local)
	}
	if remote.ExecutedRuns == 0 || remote.CachedRuns != 0 {
		t.Errorf("first generation: executed=%d cached=%d, want all executed", remote.ExecutedRuns, remote.CachedRuns)
	}

	// Second generation: the store answers every run.
	again, err := figureSync(c.BaseURL, "3", wireOpts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Text != remote.Text {
		t.Error("regenerated figure text not byte-identical")
	}
	if again.ExecutedRuns != 0 || again.CachedRuns != remote.ExecutedRuns {
		t.Errorf("regeneration: executed=%d cached=%d, want 0 executed / %d cached",
			again.ExecutedRuns, again.CachedRuns, remote.ExecutedRuns)
	}

	// Async mode: a warm-store figure job's polled status carries the final
	// progress and the same text.
	jobID, err := c.FigureAsync(ctx, "3", wireOpts)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitJob(ctx, jobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.StatusDone {
		t.Fatalf("async figure job ended %q, want done", final.Status)
	}
	if final.FigureText != remote.Text {
		t.Error("async figure text not byte-identical to sync text")
	}
	if final.Progress == nil || final.Progress.Done != final.Progress.Total || final.Progress.Total == 0 {
		t.Errorf("figure job progress = %+v, want done == total > 0", final.Progress)
	}
}
