package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
)

// addDynamic appends one daemon to the cluster using seed-node gossip: the
// first daemon bootstraps alone (Gossip with no seeds), every later one joins
// through daemon 0. Timers are cranked down so churn tests converge fast.
func (tc *testCluster) addDynamic(t testing.TB, replicas int) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	workers := tc.workers
	if workers == 0 {
		workers = 2
	}
	cfg := Config{
		Store: store, Workers: workers,
		Self:     url,
		Replicas: replicas,
		// Fast gossip so joins converge quickly, but a slow death verdict:
		// the tests query survivors immediately after a kill and need the
		// dead member still ranked so the probe path (not a ranking shift)
		// is what serves the replica.
		Heartbeat: 25 * time.Millisecond,
		DeadAfter: 2 * time.Second,
	}
	if len(tc.urls) == 0 {
		cfg.Gossip = true // first daemon has nobody to seed from
	} else {
		cfg.Seeds = []string{tc.urls[0]}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	tc.urls = append(tc.urls, url)
	tc.servers = append(tc.servers, srv)
	tc.stores = append(tc.stores, store)
	tc.https = append(tc.https, hs)
	t.Cleanup(func() {
		// Shutdown, not Close: a replica push this daemon is storing must
		// finish before its store's directory is removed.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Close()
	})
	return len(tc.servers) - 1
}

// crash kills daemon i abruptly: the gossip loop and HTTP listener stop with
// no farewell, like a killed process. Survivors must detect the death through
// suspicion, not be told about it — unlike kill, which Stop()s the node and
// gossips a graceful leave.
func (tc *testCluster) crash(i int) {
	tc.servers[i].node.Crash()
	tc.https[i].Close()
	tc.servers[i].Close()
}

// newDynamicCluster bootstraps an n-daemon cluster purely through gossip and
// waits for every member to observe the full membership. Each daemon has two
// simulation workers.
func newDynamicCluster(t testing.TB, n, replicas int) *testCluster {
	t.Helper()
	return (&testCluster{}).start(t, n, replicas)
}

// start bootstraps tc's n daemons (see newDynamicCluster).
func (tc *testCluster) start(t testing.TB, n, replicas int) *testCluster {
	t.Helper()
	for i := 0; i < n; i++ {
		tc.addDynamic(t, replicas)
	}
	tc.waitMembers(t, n)
	// A job ID names its owner by address tag; the fixtures rely on one hop.
	tags := map[string]string{}
	for _, u := range tc.urls {
		if other, dup := tags[ownerTag(u)]; dup {
			t.Fatalf("members %s and %s share the job-ID owner tag %s", other, u, ownerTag(u))
		}
		tags[ownerTag(u)] = u
	}
	return tc
}

// waitMembers blocks until every daemon in live sees exactly n active members
// (pass nil live to mean "all daemons").
func (tc *testCluster) waitMembers(t testing.TB, n int, live ...int) {
	t.Helper()
	idx := live
	if len(idx) == 0 {
		for i := range tc.servers {
			idx = append(idx, i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, i := range idx {
			if tc.servers[i].node.Len() != n {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			sizes := make([]int, 0, len(idx))
			for _, i := range idx {
				sizes = append(sizes, tc.servers[i].node.Len())
			}
			t.Fatalf("membership never converged to %d: daemons %v see %v", n, idx, sizes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// specFP resolves a wire spec's store fingerprint.
func specFP(t testing.TB, spec api.Spec) [32]byte {
	t.Helper()
	rs, err := spec.ToRunSpec()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := simstore.Fingerprint(rs)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// holders lists which daemons have fp in their store.
func (tc *testCluster) holders(fp [32]byte) []int {
	var out []int
	for i, st := range tc.stores {
		if _, ok := st.Get(fp); ok {
			out = append(out, i)
		}
	}
	return out
}

// indexOf maps a member address back to its daemon index.
func (tc *testCluster) indexOf(t testing.TB, addr string) int {
	t.Helper()
	for i, u := range tc.urls {
		if u == addr {
			return i
		}
	}
	t.Fatalf("address %s not in cluster %v", addr, tc.urls)
	return -1
}

// TestReplicationTopK: after a clustered write, the record lands on exactly
// the top-K rendezvous-ranked members — the owner synchronously, the warm
// replicas asynchronously — and on nobody else.
func TestReplicationTopK(t *testing.T) {
	tc := newDynamicCluster(t, 3, 2)
	ctx := context.Background()

	spec := tinySpec("replicated", 21)
	fp := specFP(t, spec)
	ranked := tc.servers[0].node.Ranked(fp)
	owner := tc.indexOf(t, ranked[0])
	replica := tc.indexOf(t, ranked[1])
	third := tc.indexOf(t, ranked[2])

	entry := (owner + 1) % 3
	if _, err := client.New(tc.urls[entry]).Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := tc.stores[owner].Get(fp); !ok {
		t.Fatalf("owner daemon %d has no record after clustered write", owner)
	}

	// Replication is asynchronous: wait for the warm replica to catch up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := tc.stores[replica].Get(fp); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("record never replicated to rank-1 member (daemon %d)", replica)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := tc.stores[third].Get(fp); ok {
		t.Errorf("record leaked past the top-%d set to rank-2 member (daemon %d)", 2, third)
	}

	// Replica copy is byte-identical to the owner's.
	or, _ := tc.stores[owner].Get(fp)
	rr, _ := tc.stores[replica].Get(fp)
	ob, _ := json.Marshal(or.Stats)
	rb, _ := json.Marshal(rr.Stats)
	if string(ob) != string(rb) {
		t.Errorf("replica stats differ from owner:\nowner   %s\nreplica %s", ob, rb)
	}
	// The push counter bumps when the owner processes the ack, which can
	// trail the replica's store write — poll rather than assert instantly.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if atomic.LoadUint64(&tc.servers[owner].replPushed) > 0 &&
			atomic.LoadUint64(&tc.servers[replica].replRecv) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("replication counters never moved: owner pushed %d, replica received %d",
				atomic.LoadUint64(&tc.servers[owner].replPushed),
				atomic.LoadUint64(&tc.servers[replica].replRecv))
			break
		}
	}
}

// TestKilledOwnerServedFromReplica is the acceptance drill: once a record is
// replicated, killing its owner must not cost a re-execution — a GET through
// any surviving daemon returns the byte-identical record from a warm replica.
func TestKilledOwnerServedFromReplica(t *testing.T) {
	tc := newDynamicCluster(t, 3, 2)
	ctx := context.Background()

	spec := tinySpec("failover-replica", 31)
	fp := specFP(t, spec)
	ranked := tc.servers[0].node.Ranked(fp)
	owner := tc.indexOf(t, ranked[0])
	replica := tc.indexOf(t, ranked[1])

	first, err := client.New(tc.urls[(owner+1)%3]).Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, true)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(first.Results[0].Stats)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := tc.stores[replica].Get(fp); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("record never replicated; cannot run the kill drill")
		}
		time.Sleep(10 * time.Millisecond)
	}

	before := executedCounts(tc)
	tc.crash(owner)

	// Query immediately through a survivor that is NOT the replica, so the
	// answer must come off a probe of the ranked list, not a local hit.
	entry := replica
	for i := range tc.servers {
		if i != owner && i != replica {
			entry = i
		}
	}
	resp, err := client.New(tc.urls[entry]).Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[0].Cached {
		t.Error("post-kill result not served from a store")
	}
	got, _ := json.Marshal(resp.Results[0].Stats)
	if string(got) != string(want) {
		t.Errorf("replica-served stats differ:\nfirst %s\nafter %s", want, got)
	}
	after := executedCounts(tc)
	for i := range after {
		if i != owner && after[i] != before[i] {
			t.Errorf("daemon %d re-executed after owner kill (%d -> %d)", i, before[i], after[i])
		}
	}
	hits := atomic.LoadUint64(&tc.servers[entry].replicaHits)
	if entry != replica {
		hits += atomic.LoadUint64(&tc.servers[replica].replicaHits)
	}
	if hits == 0 {
		t.Error("no replica hit recorded on the serving path")
	}

	// The dead owner is eventually detected and dropped from membership.
	live := []int{}
	for i := range tc.servers {
		if i != owner {
			live = append(live, i)
		}
	}
	tc.waitMembers(t, 2, live...)
}

// TestClusterMembershipChurn is the churn satellite: a figure's runs execute
// on a 3-daemon gossip cluster while a 4th daemon joins mid-figure; no peer
// restarts, the figure output stays byte-identical to local output, and after
// the original owner of a stored record is killed the re-request is served
// entirely from stores — zero re-executions of replicated records.
func TestClusterMembershipChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	tc := newDynamicCluster(t, 3, 2)
	scale := exp.FigureOptions{Quick: true, Cycles: 2_500, Warmup: 500}
	local := localFigure(t, "3", scale)

	// Start the figure, then join a 4th daemon mid-figure through the seed.
	// No peer is restarted: the joiner is absorbed purely through gossip.
	wait := goPoolFigure("3", scale, tc.urls...)
	joined := tc.addDynamic(t, 2)
	tc.waitMembers(t, 4)

	text, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if text != local {
		t.Errorf("cluster figure text differs from local output under churn:\n--- cluster\n%s\n--- local\n%s", text, local)
	}

	// Enumerate who holds which record (store filenames are hex
	// fingerprints), pick the original daemon holding the most, and wait
	// until every one of its records has a warm copy elsewhere.
	holdersOf := func() map[string][]int {
		m := make(map[string][]int)
		for i, st := range tc.stores {
			recs, err := filepath.Glob(filepath.Join(st.Dir(), "*", "*.json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range recs {
				fp := strings.TrimSuffix(filepath.Base(p), ".json")
				m[fp] = append(m[fp], i)
			}
		}
		return m
	}
	counts := make([]int, len(tc.servers))
	for _, who := range holdersOf() {
		for _, i := range who {
			counts[i]++
		}
	}
	victim := 0
	for i, c := range counts {
		if i != joined && c > counts[victim] {
			victim = i
		}
	}
	if counts[victim] == 0 {
		t.Fatalf("no original daemon holds any figure record: %v", counts)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		replicated := true
		for _, who := range holdersOf() {
			elsewhere := false
			mine := false
			for _, i := range who {
				if i == victim {
					mine = true
				} else {
					elsewhere = true
				}
			}
			if mine && !elsewhere {
				replicated = false
				break
			}
		}
		if replicated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("some figure record exists only on the victim; replication never caught up")
		}
		time.Sleep(20 * time.Millisecond)
	}

	before := executedCounts(tc)
	tc.crash(victim)

	entry := (victim + 1) % 3
	text, err = poolFigure("3", scale, nil, tc.urls[entry])
	if err != nil {
		t.Fatal(err)
	}
	if text != local {
		t.Errorf("post-kill figure text differs from local output:\n--- cluster\n%s\n--- local\n%s", text, local)
	}
	after := executedCounts(tc)
	for i := range after {
		if i != victim && after[i] != before[i] {
			t.Errorf("daemon %d re-executed replicated records (%d -> %d)", i, before[i], after[i])
		}
	}
}

// TestReadRepairCountsOneMiss: a read that misses locally, finds the record
// on rank 1 and repairs it onto this daemon counts one store miss (the
// read's own), not a second one for the repair's existence check.
func TestReadRepairCountsOneMiss(t *testing.T) {
	tc := newDynamicCluster(t, 3, 2)
	spec := tinySpec("repair-miss", 41)
	fp := specFP(t, spec)
	r := tc.rankedIndices(t, fp)
	tc.plant(t, r[1], spec, gpu.RunStats{Cycles: 4242, Instructions: 17})

	entry := tc.servers[r[0]]
	misses0, repairs0 := tc.stores[r[0]].StoreStats().Misses, atomic.LoadUint64(&entry.readRepairs)
	resp, err := client.New(tc.urls[r[0]]).Runs(context.Background(), api.RunRequest{Specs: []api.Spec{spec}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[0].Cached {
		t.Fatal("the rank-1 record was not found")
	}
	for deadline := time.Now().Add(5 * time.Second); atomic.LoadUint64(&entry.readRepairs) == repairs0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the read repair never ran")
		}
	}
	if !tc.stores[r[0]].Has(fp) {
		t.Error("the repair did not store the record on the entry (rank 0)")
	}
	if d := tc.stores[r[0]].StoreStats().Misses - misses0; d != 1 {
		t.Errorf("the entry counted %d store misses, want 1", d)
	}
}

// TestReplicateChecksRecords: POST /v1/replicate stores a record's
// statistics as the bytes that came, so it stores only those that match
// their checksum, form a compact JSON object and belong to a spec that
// fingerprints to the record's address; it rejects the rest.
func TestReplicateChecksRecords(t *testing.T) {
	tc := newDynamicCluster(t, 1, 1)
	spec, run, stats, fp := tinyRecord(t)
	enc, err := simstore.EncodeStats(stats)
	if err != nil {
		t.Fatal(err)
	}
	good := api.RawRecord{Fingerprint: simstore.Hex(fp), Key: spec.Key, Spec: api.FromRunSpec(run.Canonical()),
		StatsCRC: enc.CRC, Stats: enc.JSON}
	spaced := append([]byte("{ "), enc.JSON[1:]...)
	for _, c := range []struct {
		name   string
		edit   func(api.RawRecord) api.RawRecord
		stored bool
	}{
		{"wrong checksum", func(r api.RawRecord) api.RawRecord { r.StatsCRC++; return r }, false},
		{"not compact", func(r api.RawRecord) api.RawRecord { r.Stats, r.StatsCRC = spaced, simstore.Checksum(spaced); return r }, false},
		{"not an object", func(r api.RawRecord) api.RawRecord {
			r.Stats, r.StatsCRC = []byte("[]"), simstore.Checksum([]byte("[]"))
			return r
		}, false},
		{"another spec", func(r api.RawRecord) api.RawRecord { r.Spec.Seed++; return r }, false},
		{"intact", func(r api.RawRecord) api.RawRecord { return r }, true},
	} {
		var resp api.ReplicateResponse
		body, _ := post(t, tc.urls[0], "/v1/replicate", api.ReplicateRequest{Records: []api.RawRecord{c.edit(good)}})
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		hit, ok := tc.stores[0].Get(fp)
		if c.stored != (resp.Stored == 1 && resp.Rejected == 0) || c.stored != ok {
			t.Errorf("%s: stored %d, rejected %d, store hit %v; want stored %v", c.name, resp.Stored, resp.Rejected, ok, c.stored)
		}
		if ok && !bytes.Equal(hit.Stats.JSON, enc.JSON) {
			t.Errorf("%s: the store holds %s, want the bytes pushed", c.name, hit.Stats.JSON)
		}
	}
}
