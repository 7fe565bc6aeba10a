package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
)

// newObsServer starts a checkpoint-enabled Server and returns it with a
// client and its base URL (the tests here hit raw endpoints the typed
// client does not wrap).
func newObsServer(t *testing.T, cfg Config) (*Server, *client.Client, string) {
	t.Helper()
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, client.New(hs.URL), hs.URL
}

// TestMetricsExpositionLints is the live-scrape format gate: after real
// traffic (an executed run, a cache hit, a 404), GET /metrics must render
// exposition that passes the internal/obs validator — every series under a
// HELP/TYPE header, counters *_total and non-negative, histograms
// cumulative with a +Inf bucket matching _count.
func TestMetricsExpositionLints(t *testing.T) {
	_, c, base := newObsServer(t, Config{Workers: 2, Checkpoints: true})
	ctx := context.Background()

	if _, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{tinySpec("obs", 7)}}, true); err != nil {
		t.Fatal(err)
	}
	// A cache hit and an unmatched route exercise more middleware paths.
	if _, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{tinySpec("obs", 7)}}, true); err != nil {
		t.Fatal(err)
	}
	http.Get(base + "/no/such/route")

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, errLint := range obs.Lint(text) {
		t.Errorf("lint: %v", errLint)
	}
	for _, want := range []string{
		"simd_runs_executed_total 1",
		"simd_store_hits_total 1",
		"simd_checkpoint_saves_total",
		"simd_http_requests_total{",
		`route="POST /v1/runs"`,
		"simd_http_request_duration_seconds_bucket{",
		"simd_job_queue_wait_seconds_count 1",
		"simd_run_duration_seconds_count 1",
		"simd_gpu_cycles_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, " untyped\n") {
		t.Error("exposition carries an untyped family; every series is a counter, gauge or histogram")
	}
	if !strings.Contains(text, `route="unmatched"`) {
		t.Error("404 on an unregistered path not counted under route=\"unmatched\"")
	}
}

// TestRequestIDHeader checks the middleware echoes (or mints) X-Request-Id.
func TestRequestIDHeader(t *testing.T) {
	_, _, base := newObsServer(t, Config{Workers: 1})
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("no X-Request-Id minted on a bare request")
	}
	req, _ := http.NewRequest("GET", base+"/healthz", nil)
	req.Header.Set("X-Request-Id", "fixed-id-123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "fixed-id-123" {
		t.Errorf("X-Request-Id = %q, want the caller's fixed-id-123 echoed", got)
	}
}

// findSpan walks a span forest depth-first for a span by name.
func findSpan(spans []*obs.SpanJSON, name string) *obs.SpanJSON {
	for _, sp := range spans {
		if sp.Name == name {
			return sp
		}
		if hit := findSpan(sp.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestJobTimelineShowsCheckpointResume is the tracer's end-to-end gate: a
// run resuming from a banked warmup checkpoint must serve a timeline whose
// span tree shows a checkpoint probe (hit), a restore, and a measure
// window — and no warmup span, because the warmup was not re-simulated.
func TestJobTimelineShowsCheckpointResume(t *testing.T) {
	_, c, base := newObsServer(t, Config{Workers: 1, Checkpoints: true})
	ctx := context.Background()

	// Run A banks the warmup snapshot.
	specA := tinySpec("cold", 3)
	specA.WarmupCycles = 2_000
	if _, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{specA}}, true); err != nil {
		t.Fatal(err)
	}
	// Run B shares A's warmup prefix but differs in measure cycles, so it
	// misses the result store and resumes from the checkpoint.
	specB := specA
	specB.Key = "resumed"
	specB.MeasureCycles = specA.MeasureCycles + 1_000
	resp, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{specB}}, true)
	if err != nil {
		t.Fatal(err)
	}
	rb := resp.Results[0]
	if rb.Cached || rb.JobID == "" {
		t.Fatalf("run B: cached=%v job=%q, want an executed job", rb.Cached, rb.JobID)
	}

	hresp, err := http.Get(base + "/v1/jobs/" + rb.JobID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status = %d", hresp.StatusCode)
	}
	var tl api.JobTimeline
	if err := json.NewDecoder(hresp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if tl.ID != rb.JobID || tl.Status != api.StatusDone {
		t.Fatalf("timeline id=%q status=%q, want %q done", tl.ID, tl.Status, rb.JobID)
	}
	if findSpan(tl.Spans, "queue-wait") == nil {
		t.Error("timeline has no queue-wait span")
	}
	probe := findSpan(tl.Spans, "checkpoint-probe")
	if probe == nil {
		t.Fatal("timeline has no checkpoint-probe span")
	}
	if hit, ok := probe.Attrs["hit"].(bool); !ok || !hit {
		t.Errorf("checkpoint-probe hit attr = %v, want true", probe.Attrs["hit"])
	}
	if findSpan(tl.Spans, "checkpoint-restore") == nil {
		t.Error("timeline has no checkpoint-restore span")
	}
	measure := findSpan(tl.Spans, "measure")
	if measure == nil {
		t.Fatal("timeline has no measure span")
	}
	if measure.Open {
		t.Error("measure span still open on a done job")
	}
	if findSpan(tl.Spans, "warmup") != nil {
		t.Error("resumed run re-recorded a warmup span; the warmup should come from the checkpoint")
	}
}

// TestTimelineUnknownJob404s checks the endpoint's miss path.
func TestTimelineUnknownJob404s(t *testing.T) {
	_, _, base := newObsServer(t, Config{Workers: 1})
	resp, err := http.Get(base + "/v1/jobs/nope/timeline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestGrafanaDashboardMetricNamesExist cross-checks deploy/: every
// simd_-prefixed metric the Grafana dashboard queries must be a family the
// server actually exports (histogram sub-series resolved by suffix), so
// the dashboard never ships panels over renamed or imagined series.
func TestGrafanaDashboardMetricNamesExist(t *testing.T) {
	data, err := os.ReadFile("../../deploy/grafana/dashboards/simd.json")
	if err != nil {
		t.Fatalf("dashboard JSON missing: %v", err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dashboard is not valid JSON: %v", err)
	}

	srv, _, _ := newObsServer(t, Config{Workers: 1, Checkpoints: true})
	exported := make(map[string]bool)
	for _, name := range srv.Registry().FamilyNames() {
		exported[name] = true
	}
	strip := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && exported[base] {
				return base
			}
		}
		return name
	}
	referenced := make(map[string]bool)
	for _, name := range regexp.MustCompile(`simd_[a-z0-9_]+`).FindAllString(string(data), -1) {
		referenced[strip(name)] = true
		if !exported[strip(name)] {
			t.Errorf("dashboard references %s, which the server does not export", name)
		}
	}

	// The membership/replication panels must not silently regress: these
	// families are the observable surface of the gossip + top-K design.
	for _, name := range []string{
		"simd_membership_size",
		"simd_membership_epoch",
		"simd_cluster_failovers_total",
		"simd_cluster_replica_hits_total",
		"simd_replication_pushed_total",
		"simd_replication_received_total",
		"simd_replication_lag_seconds",
		"simd_replication_read_repairs_total",
	} {
		if !referenced[name] {
			t.Errorf("dashboard has no panel referencing %s", name)
		}
	}
}
