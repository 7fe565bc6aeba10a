package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

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
