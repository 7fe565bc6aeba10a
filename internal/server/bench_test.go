package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// The service rungs of the measurement ladder, in host time per request
// through the daemon's handler (no socket, no client): a POST /v1/runs
// whose one spec is a stored record, the POST /v1/records/lookup probe a
// forwarding member sends for it (the server half of a forwarded hit), and
// the POST /v1/replicate push that banks one record on a replica (the
// receiving half of a K=2 replication write). Above them,
// BenchmarkForwardedHit and BenchmarkBystanderHit are whole forwarded hops
// over loopback sockets, and BenchmarkBatchHit a figure's stored batch
// through the client.

func BenchmarkHandleRunsHit(b *testing.B) {
	h, spec, _ := hitServer(b)
	body, _ := json.Marshal(api.RunRequest{Specs: []api.Spec{spec}})
	benchPost(b, h, "/v1/runs", body, func(resp []byte) bool {
		var rr api.RunResponse
		return json.Unmarshal(resp, &rr) == nil && len(rr.Results) == 1 && rr.Results[0].Cached
	})
}

func BenchmarkRecordLookup(b *testing.B) {
	h, _, fp := hitServer(b)
	body, _ := json.Marshal(api.LookupRequest{Fingerprints: []string{simstore.Hex(fp)}})
	benchPost(b, h, "/v1/records/lookup", body, func(resp []byte) bool {
		var lr api.LookupResponse
		return json.Unmarshal(resp, &lr) == nil && len(lr.Records) == 1
	})
}

// BenchmarkReplicate: one simulated record pushed to a clustered daemon's
// POST /v1/replicate, which verifies its fingerprint and stores it.
func BenchmarkReplicate(b *testing.B) {
	tc := newDynamicCluster(b, 1, 2)
	spec, run, stats, fp := tinyRecord(b)
	enc, err := simstore.EncodeStats(stats)
	if err != nil {
		b.Fatal(err)
	}
	body, _ := json.Marshal(api.ReplicateRequest{Records: []api.RawRecord{{
		Fingerprint: simstore.Hex(fp), Key: spec.Key, Spec: api.FromRunSpec(run.Canonical()),
		StatsCRC: enc.CRC, Stats: enc.JSON,
	}}})
	benchPost(b, tc.servers[0].Handler(), "/v1/replicate", body, func(resp []byte) bool {
		var rr api.ReplicateResponse
		return json.Unmarshal(resp, &rr) == nil && rr.Stored == 1 && rr.Rejected == 0
	})
}

// BenchmarkBatchHit: the batch paperfigs -server sends for a figure the
// cluster has run before — one POST /v1/runs of 64 stored specs through
// client.Runs over a loopback socket, the client's encode and decode
// included. The 64 records hold one run's statistics under 64 specs'
// fingerprints: a hit reads and checks them, it never re-derives them.
func BenchmarkBatchHit(b *testing.B) {
	store, err := simstore.Open(b.TempDir(), simstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	_, _, stats, _ := tinyRecord(b)
	specs := make([]api.Spec, 64)
	for i := range specs {
		specs[i] = tinySpec(fmt.Sprintf("batch-%d", i), int64(i+1))
		run, err := specs[i].ToRunSpec()
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Put(specFP(b, specs[i]), specs[i].Key, run, stats); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := New(Config{Store: store, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(hs.Close)
	c, req := client.New(hs.URL), api.RunRequest{Specs: specs}
	resp, err := c.Runs(context.Background(), req, false)
	if err != nil || len(resp.Results) != len(specs) ||
		slices.ContainsFunc(resp.Results, func(r api.RunResult) bool { return !r.Cached }) {
		b.Fatalf("the stored batch was not all hits: %v", err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Runs(context.Background(), req, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardedHit: a POST /v1/runs to the member of a two-daemon
// loopback cluster (no replication) that holds no copy of the stored record:
// its store misses, it forwards the spec to the owner, whose store answers,
// and it relays the owner's hit — client, entry member and owner, two
// socket round trips and every encode and decode in between.
func BenchmarkForwardedHit(b *testing.B) {
	tc := newDynamicCluster(b, 2, 1)
	spec := tinySpec("forwarded", 1)
	owner := tc.ownerIndex(b, spec)
	benchHop(b, tc, spec, 1-owner, owner)
}

// BenchmarkBystanderHit: the same request on a three-daemon K=2 cluster,
// sent to the member that is neither the owner nor the replica — the
// forward path of service-mix. Its store misses and its record probe finds
// the owner's copy.
func BenchmarkBystanderHit(b *testing.B) {
	tc := newDynamicCluster(b, 3, 2)
	spec := tinySpec("bystander", 1)
	r := tc.rankedIndices(b, specFP(b, spec))
	benchHop(b, tc, spec, r[2], r[0], r[1])
}

// benchHop stores spec by running it once through daemon entry, waits until
// every daemon of copies (the owner first) holds the record, and times one
// POST /v1/runs of it to entry per iteration, after checking that entry
// holds no copy and relays the owner's hit.
func benchHop(b *testing.B, tc *testCluster, spec api.Spec, entry int, copies ...int) {
	req := api.RunRequest{Specs: []api.Spec{spec}}
	if _, err := client.New(tc.urls[entry]).Runs(context.Background(), req, true); err != nil {
		b.Fatal(err)
	}
	fp := specFP(b, spec)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if !slices.ContainsFunc(copies, func(i int) bool { return !tc.stores[i].Has(fp) }) {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("the record never reached daemons %v; holders: %v", copies, tc.holders(fp))
		}
	}
	if tc.stores[entry].Has(fp) {
		b.Fatal("the entry member holds a copy; the hop would not be measured")
	}
	body, _ := json.Marshal(req)
	post := func() []byte {
		resp, err := http.Post(tc.urls[entry]+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /v1/runs: HTTP %d (%v): %s", resp.StatusCode, err, data)
		}
		return data
	}
	var rr api.RunResponse
	if err := json.Unmarshal(post(), &rr); err != nil || len(rr.Results) != 1 ||
		!rr.Results[0].Cached || rr.Results[0].Peer != tc.urls[copies[0]] {
		b.Fatalf("the entry member did not relay the owner's hit: %+v (%v)", rr, err)
	}
	b.ReportAllocs()
	for b.Loop() {
		post()
	}
}

// tinyRecord simulates one tiny spec and returns it, resolved, with its
// statistics and fingerprint.
func tinyRecord(b testing.TB) (api.Spec, sweep.RunSpec, gpu.RunStats, [32]byte) {
	spec := tinySpec("hit", 1)
	run, err := spec.ToRunSpec()
	if err != nil {
		b.Fatal(err)
	}
	stats, err := sweep.Execute(run)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := simstore.Fingerprint(run)
	if err != nil {
		b.Fatal(err)
	}
	return spec, run, stats, fp
}

// hitServer returns the handler of a daemon whose store holds the simulated
// record of one tiny spec, that spec, and its fingerprint.
func hitServer(b testing.TB) (http.Handler, api.Spec, [32]byte) {
	store, err := simstore.Open(b.TempDir(), simstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spec, run, stats, fp := tinyRecord(b)
	if err := store.Put(fp, spec.Key, run, stats); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Store: store, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv.Handler(), spec, fp
}

// benchPost times one POST of body to path per iteration, after checking
// that the first answer is the expected one.
func benchPost(b *testing.B, h http.Handler, path string, body []byte, hit func([]byte) bool) {
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST %s: HTTP %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	if resp := post(); !hit(resp.Body.Bytes()) {
		b.Fatalf("POST %s answered unexpectedly: %s", path, resp.Body)
	}
	b.ReportAllocs()
	for b.Loop() {
		post()
	}
}
