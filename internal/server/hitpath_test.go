package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/simstore"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The hit path's gates. A hit's statistics travel as the bytes the store
// holds, spliced into bodies written by hand (body.go); these tests pin
// those bodies to what json.NewEncoder writes for the api structs the hit
// stands for, and bound what one hit allocates.

// hitRecord is one stored run: its wire spec, statistics and fingerprint.
type hitRecord struct {
	spec  api.Spec
	stats gpu.RunStats
	fp    [32]byte
}

// hitRecords simulates the tiny-scale run of every catalog benchmark under
// the adaptive LLC (so the controller's statistics are there too) and one
// multi-program run, whose key encoding/json has to escape.
func hitRecords(t testing.TB) []hitRecord {
	t.Helper()
	var specs []api.Spec
	for _, w := range workload.Catalog() {
		specs = append(specs, api.Spec{Key: "tiny-" + w.Abbr, Benchmarks: []string{w.Abbr}, Mode: "adaptive",
			MeasureCycles: 2_000, WarmupCycles: 500})
	}
	specs = append(specs, api.Spec{Key: `multi <&> "VA+MM" ☕`, Benchmarks: []string{"VA", "MM"},
		AppModes: []string{"shared", "private"}, MeasureCycles: 2_000, WarmupCycles: 500, Kernels: 2})
	runs := make([]sweep.RunSpec, len(specs))
	for i, s := range specs {
		var err error
		if runs[i], err = s.ToRunSpec(); err != nil {
			t.Fatal(err)
		}
	}
	results, err := (&sweep.Runner{Workers: 2}).Run(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]hitRecord, len(specs))
	for i, r := range results {
		recs[i] = hitRecord{spec: specs[i], stats: r.Stats, fp: specFP(t, specs[i])}
	}
	return recs
}

// encoded is json.NewEncoder's encoding of v: the body the daemon used to
// write for it.
func encoded(t testing.TB, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// post sends body to path on the daemon at base and returns the answer's
// body and statistics checksums.
func post(t testing.TB, base, path string, body any) (string, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d (%v): %s", path, resp.StatusCode, err, got)
	}
	return string(got), resp.Header.Get(api.StatsCRCHeader)
}

// hitResult is the api.RunResult a hit on rec stands for, served by peer.
func hitResult(rec *hitRecord, peer string) api.RunResult {
	return api.RunResult{Key: rec.spec.Key, Fingerprint: simstore.Hex(rec.fp), Cached: true,
		Status: api.StatusDone, Stats: &rec.stats, Peer: peer}
}

// crcsOf is the api.StatsCRCHeader value for recs' statistics.
func crcsOf(t testing.TB, recs []hitRecord) string {
	crcs := make([]string, len(recs))
	for i := range recs {
		enc, err := simstore.EncodeStats(recs[i].stats)
		if err != nil {
			t.Fatal(err)
		}
		crcs[i] = strconv.FormatUint(uint64(enc.CRC), 16)
	}
	return strings.Join(crcs, ",")
}

// TestHitBodiesByteIdentical: a POST /v1/runs hit, a POST
// /v1/records/lookup answer and a forwarded hit, for every catalog
// benchmark's record and a multi-program one, one spec at a time and in one
// batch, are byte for byte json.NewEncoder's encoding of the api structs
// holding the statistics, and carry the statistics' checksums.
func TestHitBodiesByteIdentical(t *testing.T) {
	recs := hitRecords(t)
	srv, c := newTestServer(t, 1)
	for i := range recs {
		run, _ := recs[i].spec.ToRunSpec()
		if err := srv.store.Put(recs[i].fp, recs[i].spec.Key, run, recs[i].stats); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what, got, crcs, want, wantCRCs string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: body differs from json.NewEncoder's:\n got %.300s\nwant %.300s", what, got, want)
		}
		if crcs != wantCRCs {
			t.Errorf("%s: checksums %q, want %q", what, crcs, wantCRCs)
		}
	}

	var all []api.Spec
	var hits []api.RunResult
	var stored []api.StoredRecord
	var fps []string
	for i := range recs {
		rec := &recs[i]
		all = append(all, rec.spec)
		hits = append(hits, hitResult(rec, ""))
		stored = append(stored, api.StoredRecord{Fingerprint: simstore.Hex(rec.fp), Key: rec.spec.Key, Stats: rec.stats})
		fps = append(fps, simstore.Hex(rec.fp))

		body, crcs := post(t, c.BaseURL, "/v1/runs", api.RunRequest{Specs: []api.Spec{rec.spec}})
		check("hit "+rec.spec.Key, body, crcs, encoded(t, api.RunResponse{Results: hits[i:]}), crcsOf(t, recs[i:i+1]))
		body, crcs = post(t, c.BaseURL, "/v1/records/lookup", api.LookupRequest{Fingerprints: fps[i:]})
		check("lookup "+rec.spec.Key, body, crcs, encoded(t, api.LookupResponse{Records: stored[i:]}), crcsOf(t, recs[i:i+1]))
	}
	body, crcs := post(t, c.BaseURL, "/v1/runs", api.RunRequest{Specs: all})
	check("batch hit", body, crcs, encoded(t, api.RunResponse{Results: hits}), crcsOf(t, recs))
	body, crcs = post(t, c.BaseURL, "/v1/records/lookup", api.LookupRequest{Fingerprints: append(fps, strings.Repeat("0", 64))})
	check("batch lookup", body, crcs, encoded(t, api.LookupResponse{Records: stored}), crcsOf(t, recs))
	body, crcs = post(t, c.BaseURL, "/v1/records/lookup", api.LookupRequest{Fingerprints: []string{strings.Repeat("0", 64)}})
	check("empty lookup", body, crcs, encoded(t, api.LookupResponse{Records: []api.StoredRecord{}}), "")

	// Forwarded: a two-member cluster without replicas, each record on its
	// owner alone, the whole batch asked of member 0 — its own records hit
	// locally, the others' come back through one forward.
	tc := newDynamicCluster(t, 2, 1)
	for i := range recs {
		rec := &recs[i]
		owner := tc.ownerIndex(t, rec.spec)
		tc.plant(t, owner, rec.spec, rec.stats)
		hits[i].Peer = tc.urls[owner]
	}
	forwarded := 0
	for _, h := range hits {
		if h.Peer != tc.urls[0] {
			forwarded++
		}
	}
	if forwarded == 0 || forwarded == len(hits) {
		t.Fatalf("%d of %d records live off the entry member; the batch must mix local and forwarded hits", forwarded, len(hits))
	}
	body, crcs = post(t, tc.urls[0], "/v1/runs", api.RunRequest{Specs: all})
	check(fmt.Sprintf("forwarded batch (%d of %d forwarded)", forwarded, len(hits)), body, crcs,
		encoded(t, api.RunResponse{Results: hits}), crcsOf(t, recs))
}

// TestHandlerHitAllocs bounds what one cached hit allocates through the
// handler, httptest's request and recorder included. Decoding the stored
// statistics and re-encoding them took 83 allocations a hit; splicing the
// stored bytes takes 73.
func TestHandlerHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const budget = 74
	h, spec, _ := hitServer(t)
	body, _ := json.Marshal(api.RunRequest{Specs: []api.Spec{spec}})
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
			t.Fatalf("not a hit: HTTP %d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("%.1f allocations a hit", allocs)
	if allocs > budget {
		t.Errorf("one handler hit allocates %.1f times, budget %d", allocs, budget)
	}
}

// TestBodiesGrowOnce: a hit or lookup answer built in an empty buffer — the
// pool's after a collection — allocates its body once, at its full length,
// for a figure-sized batch of stored results, job handles and a failure.
func TestBodiesGrowOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	stats, err := simstore.EncodeStats(gpu.RunStats{Cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	var results []api.RawRunResult
	var recs []api.RawRecord
	for i := 0; i < 64; i++ {
		key, fp := fmt.Sprintf("fig11-%02d", i), fmt.Sprintf("%064x", i)
		results = append(results, api.RawRunResult{Key: key, Fingerprint: fp, Cached: true,
			Status: api.StatusDone, Stats: stats.JSON, Peer: "http://127.0.0.1:8404"})
		recs = append(recs, api.RawRecord{Fingerprint: fp, Key: key, Stats: stats.JSON})
	}
	results = append(results,
		api.RawRunResult{Key: "queued", Fingerprint: strings.Repeat("f", 64), Status: api.StatusQueued, JobID: "j0a1b2c3d4e5f6a7b-000001"},
		api.RawRunResult{Key: "failed", Status: api.StatusFailed, Error: "job queue full (4096 pending)"})
	for _, c := range []struct {
		what  string
		build func() []byte
	}{
		{"hit", func() []byte { return appendRuns(nil, results) }},
		{"lookup", func() []byte { return appendLookup(nil, recs) }},
	} {
		if allocs := testing.AllocsPerRun(20, func() { c.build() }); allocs != 1 {
			t.Errorf("a %s answer of %d bytes built in an empty buffer allocates %.1f times, want 1", c.what, len(c.build()), allocs)
		}
	}
}

// TestAnswersDeclareLength: every kind of JSON answer — a stored batch
// longer than net/http's 2 KB write buffer, a lookup, a job status carrying
// statistics, its timeline, errors, membership and health — declares a
// Content-Length equal to its body, so none goes out chunked.
func TestAnswersDeclareLength(t *testing.T) {
	_, c := newTestServer(t, 1)
	ctx := context.Background()
	spec := tinySpec("declared", 1)
	sub, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, false)
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Results[0].JobID
	if _, err := c.WaitJob(ctx, id, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	fp := simstore.Hex(specFP(t, spec))
	batch, _ := json.Marshal(api.RunRequest{Specs: []api.Spec{spec, spec}})
	lookup, _ := json.Marshal(api.LookupRequest{Fingerprints: []string{fp}})
	for _, a := range []struct {
		name, method, path, body, has string
		code                          int
	}{
		{"stored batch", http.MethodPost, "/v1/runs", string(batch), `"cached":true`, http.StatusOK},
		{"lookup", http.MethodPost, "/v1/records/lookup", string(lookup), `"stats":{`, http.StatusOK},
		{"job status", http.MethodGet, "/v1/runs/" + id, "", `"stats":{`, http.StatusOK},
		{"timeline", http.MethodGet, "/v1/jobs/" + id + "/timeline", "", `"spans"`, http.StatusOK},
		{"unknown job", http.MethodGet, "/v1/runs/j0000000000-1", "", `"error":`, http.StatusNotFound},
		{"bad JSON", http.MethodPost, "/v1/runs", "{", `"error":`, http.StatusBadRequest},
		{"membership", http.MethodGet, "/v1/cluster/membership", "", `"epoch"`, http.StatusOK},
		{"health", http.MethodGet, "/healthz", "", `"status":"ok"`, http.StatusOK},
	} {
		req, _ := http.NewRequest(a.method, c.BaseURL+a.path, strings.NewReader(a.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil || resp.StatusCode != a.code || !strings.Contains(string(body), a.has):
			t.Errorf("%s: HTTP %d (%v), want %d with %s: %.300s", a.name, resp.StatusCode, err, a.code, a.has, body)
		case resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0:
			t.Errorf("%s: Content-Length %d, transfer encoding %v, for a body of %d bytes",
				a.name, resp.ContentLength, resp.TransferEncoding, len(body))
		case !strings.HasSuffix(string(body), "}\n"):
			t.Errorf("%s: body does not end as json.NewEncoder ends it: %q", a.name, body[max(0, len(body)-20):])
		case a.name == "stored batch" && len(body) <= 2048:
			t.Errorf("stored batch: %d bytes, want one longer than net/http's 2 KB write buffer", len(body))
		}
	}
}

// TestClientHitAllocs bounds what one cached hit costs the process over
// loopback, client and daemon together: a Client.Runs of one stored spec.
// While the daemon chunked the answer, the client grew its read buffer
// from 512 bytes; now the answer declares its length and is read into a
// recycled buffer.
func TestClientHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	srv, c := newTestServer(t, 1)
	spec, run, stats, fp := tinyRecord(t)
	if err := srv.store.Put(fp, spec.Key, run, stats); err != nil {
		t.Fatal(err)
	}
	req := api.RunRequest{Specs: []api.Spec{spec}}
	hit := func() {
		resp, err := c.Runs(context.Background(), req, false)
		if err != nil || !resp.Results[0].Cached {
			t.Fatalf("not a hit: %+v (%v)", resp, err)
		}
	}
	hit()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, hit)
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%.1f allocations, %.0f B a hit", allocs, bytesPer)
	// Chunked: 164 allocations, ~28 KB a hit. Declared and recycled: 156,
	// ~15 KB.
	const allocBudget, byteBudget = 158, 20_000
	if allocs > allocBudget || bytesPer > byteBudget {
		t.Errorf("one loopback hit allocates %.1f times, %.0f B; budget %d, %d B", allocs, bytesPer, allocBudget, byteBudget)
	}
}
