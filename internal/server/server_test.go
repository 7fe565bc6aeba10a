package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
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
		// hs.Close waits for every handler to return; after a failure one
		// may never return (see TestSpecValidation), so leave it behind.
		if !t.Failed() {
			hs.Close()
			srv.Close()
		}
	})
	return srv, client.New(hs.URL)
}

// poolFigure regenerates figure key at scale the way paperfigs -server does:
// locally, its declared runs executed through a client.Pool over urls.
func poolFigure(key string, scale exp.FigureOptions, onProgress func(sweep.Progress), urls ...string) (string, error) {
	pool, err := client.NewPool(urls)
	if err != nil {
		return "", err
	}
	pool.OnProgress = onProgress
	fig, _ := exp.FigureByKey(key)
	opt := scale.Options()
	opt.Exec = pool
	return fig.Run(opt)
}

// goPoolFigure starts poolFigure on its own goroutine; wait returns its
// outcome once it has finished.
func goPoolFigure(key string, scale exp.FigureOptions, urls ...string) (wait func() (string, error)) {
	var text string
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		text, err = poolFigure(key, scale, nil, urls...)
	}()
	return func() (string, error) {
		<-done
		return text, err
	}
}

// localFigure is the reference text: figure key at scale, simulated here.
func localFigure(t testing.TB, key string, scale exp.FigureOptions) string {
	t.Helper()
	fig, _ := exp.FigureByKey(key)
	text, err := fig.Run(scale.Options())
	if err != nil {
		t.Fatal(err)
	}
	return text
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
	if st.Status != api.StatusDone || st.Stats == nil || st.ID != id {
		t.Fatalf("job status = %+v, want job %s done with stats", st, id)
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

	st, err := c.Cancel(ctx, victim)
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

	// The daemon opens no file a client names: a trace path is not part of
	// the wire spec, so a request naming one is refused at once — a device
	// that never ends cannot hold the handler — and the refusal quotes no
	// filesystem error. The client timeout turns a hanging daemon into a
	// failure.
	hc := &http.Client{Timeout: time.Second}
	for _, body := range []string{
		`{"trace_path":"/dev/zero","measure_cycles":1}`,
		`{"trace_path":"/etc/does-not-exist","measure_cycles":1}`,
	} {
		resp, err := hc.Post(c.BaseURL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s), want 400", body, resp.StatusCode, msg)
		}
		if strings.Contains(string(msg), "no such file") || strings.Contains(string(msg), "/etc/") {
			t.Errorf("%s: response quotes the filesystem: %s", body, msg)
		}
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

// TestFigureMatchesLocalAndCaches is the figure-level acceptance proof: a
// figure whose runs execute on the daemon is byte-identical to the local
// harness output for the same options, its progress reports each run once,
// and regenerating it is served entirely from the store.
func TestFigureMatchesLocalAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	srv, c := newTestServer(t, 0)
	scale := exp.FigureOptions{Quick: true, Cycles: 2_500, Warmup: 500}
	local := localFigure(t, "3", scale)

	var progress []sweep.Progress
	remote, err := poolFigure("3", scale, func(p sweep.Progress) { progress = append(progress, p) }, c.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	if remote != local {
		t.Errorf("server figure text differs from local harness output:\n--- server\n%s\n--- local\n%s",
			remote, local)
	}
	executed := srv.queue.Stats().Executed
	if executed == 0 {
		t.Error("first generation executed no runs")
	}
	for i, p := range progress {
		if p.Done != i+1 || p.Total != len(progress) {
			t.Errorf("progress report %d = %+v, want done %d of %d: one report per settled run", i, p, i+1, len(progress))
		}
	}
	if len(progress) == 0 {
		t.Error("no progress reported")
	}

	// Second generation: the store answers every run.
	again, err := poolFigure("3", scale, nil, c.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	if again != remote {
		t.Error("regenerated figure text not byte-identical")
	}
	if n := srv.queue.Stats().Executed; n != executed {
		t.Errorf("regeneration executed %d runs, want 0 (all store hits)", n-executed)
	}
}

// TestOversizeBodyIs413: a body one byte past an endpoint's limit is
// answered 413 naming the limit, and one at the limit is read whole. Cutting
// the body at the limit instead answered "bad JSON: unexpected end of JSON
// input" for it, and accepted one whose excess was whitespace.
func TestOversizeBodyIs413(t *testing.T) {
	tc := newDynamicCluster(t, 1, 1) // /v1/replicate answers only clustered
	// Every body is a suffix of one buffer: spaces, then an empty object.
	buf := bytes.Repeat([]byte(" "), maxReplicateBytes+1)
	copy(buf[len(buf)-2:], "{}")
	for _, c := range []struct {
		path    string
		limit   int
		atLimit int // the status of a body of exactly limit bytes
	}{
		{"/v1/runs", maxRequestBytes, http.StatusBadRequest}, // no specs
		{"/v1/records/lookup", maxLookupBytes, http.StatusOK},
		{"/v1/replicate", maxReplicateBytes, http.StatusOK},
	} {
		for _, n := range []int{c.limit, c.limit + 1} {
			resp, err := http.Post(tc.urls[0]+c.path, "application/json", bytes.NewReader(buf[len(buf)-n:]))
			if err != nil {
				t.Fatal(err)
			}
			var apiErr api.Error
			json.NewDecoder(resp.Body).Decode(&apiErr)
			resp.Body.Close()
			want := c.atLimit
			if n > c.limit {
				want = http.StatusRequestEntityTooLarge
				if limit := strconv.Itoa(c.limit); !strings.Contains(apiErr.Error, limit) {
					t.Errorf("POST %s of %d bytes: message %q does not name the limit %s", c.path, n, apiErr.Error, limit)
				}
			}
			if resp.StatusCode != want {
				t.Errorf("POST %s of %d bytes (limit %d): HTTP %d %q, want %d", c.path, n, c.limit, resp.StatusCode, apiErr.Error, want)
			}
		}
	}
}
