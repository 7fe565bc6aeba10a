package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// serviceSizes fixes one round against the daemons. Requests are closed-loop:
// the one client sends its next request only after the previous one is
// answered.
type serviceSizes struct {
	HitSpecs  int // distinct pre-stored specs
	Hits      int // hit-phase requests
	Forwards  int // forward-phase requests
	Batch     int // requests per timed batch of the hit and forward phases
	MissSpecs int // distinct cold specs
	Setups    int // times the cluster is brought up per round, each a set-up sample
}

const (
	// daemons is the cluster size. With two replicas per record, three
	// members are the fewest that leave one member without a copy, so a
	// request sent there has to cross to a peer every time.
	daemons  = 3
	replicas = 2
	// The tiny cold run of the miss phase: the simulator does almost nothing,
	// so queue, store, checkpoint bank and replication carry the cost.
	tinyMeasure = 3_000
	tinyWarmup  = 500
	missPoll    = 2 * time.Millisecond
	hitP50Key   = "service.hit_p50_ms"
)

// storedSpec is one member of the hit set with what the store must answer.
type storedSpec struct {
	wire  api.Spec
	run   sweep.RunSpec
	fp    [32]byte
	stats gpu.RunStats // after a JSON round trip, as every answer arrives
}

// serviceInputs are generated once per run from the seed.
type serviceInputs struct {
	hit  []storedSpec
	miss []storedSpec // stats unset: the daemons compute them
}

func tinySpec(key string, seed int64) (storedSpec, error) {
	wire := api.Spec{Key: key, Benchmarks: []string{"VA"}, Mode: "shared",
		Seed: seed, MeasureCycles: tinyMeasure, WarmupCycles: tinyWarmup}
	run, err := wire.ToRunSpec()
	if err != nil {
		return storedSpec{}, err
	}
	fp, err := simstore.Fingerprint(run)
	return storedSpec{wire: wire, run: run, fp: fp}, err
}

// makeServiceInputs declares the hit and miss sets and simulates the hit set
// so it can be pre-stored. Only the seeds of the tiny specs depend on seed.
func makeServiceInputs(e *env, z serviceSizes) (*serviceInputs, error) {
	in := &serviceInputs{}
	runs := make([]sweep.RunSpec, z.HitSpecs)
	for i := 0; i < z.HitSpecs; i++ {
		s, err := tinySpec(fmt.Sprintf("hit-%d", i), e.seed*1_000_000+int64(i))
		if err != nil {
			return nil, err
		}
		in.hit = append(in.hit, s)
		runs[i] = s.run
	}
	for i := 0; i < z.MissSpecs; i++ {
		s, err := tinySpec(fmt.Sprintf("miss-%d", i), e.seed*1_000_000+500_000+int64(i))
		if err != nil {
			return nil, err
		}
		in.miss = append(in.miss, s)
	}
	r := sweep.Runner{Workers: e.cpus}
	results, err := r.Run(context.Background(), runs)
	if err != nil {
		return nil, fmt.Errorf("simulate hit set: %w", err)
	}
	for i, rr := range results {
		if err := json.Unmarshal(statsJSON(rr.Stats), &in.hit[i].stats); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// daemon is one in-process simd: a store, a server and a loopback listener.
type daemon struct {
	url    string
	store  *simstore.Store
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
}

type clusterUp struct {
	members []*daemon
	urls    []string
}

// startCluster brings up n daemons joined by seed gossip and waits until
// every member sees all n. It reports how long convergence took after the
// last daemon started.
func startCluster(e *env, n int) (*clusterUp, time.Duration, error) {
	c := &clusterUp{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		url := "http://" + ln.Addr().String()
		dir, err := e.tempDir("simd-store-*")
		if err != nil {
			ln.Close()
			c.stop()
			return nil, 0, err
		}
		store, err := simstore.Open(dir, simstore.Options{})
		if err != nil {
			ln.Close()
			c.stop()
			return nil, 0, err
		}
		cfg := server.Config{
			Store: store, Workers: e.cpus, Self: url,
			Replicas: replicas, Checkpoints: true,
			Heartbeat: 50 * time.Millisecond,
		}
		if i == 0 {
			cfg.Gossip = true // the first daemon has nobody to seed from
		} else {
			cfg.Seeds = []string{c.urls[0]}
		}
		srv, err := server.New(cfg)
		if err != nil {
			ln.Close()
			c.stop()
			return nil, 0, err
		}
		d := &daemon{url: url, store: store, srv: srv,
			hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
		go func() {
			defer close(d.served)
			d.hs.Serve(ln) // returns http.ErrServerClosed on stop
		}()
		c.members = append(c.members, d)
		c.urls = append(c.urls, url)
	}
	t0 := time.Now()
	deadline := t0.Add(10 * time.Second)
	for _, d := range c.members {
		for {
			alive, err := aliveMembers(d.url)
			if err == nil && alive == n {
				break
			}
			if time.Now().After(deadline) {
				c.stop()
				return nil, 0, fmt.Errorf("membership never converged: %s sees %d of %d (%v)", d.url, alive, n, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return c, time.Since(t0), nil
}

// aliveMembers asks one daemon how many alive members it sees.
func aliveMembers(url string) (int, error) {
	resp, err := http.Get(url + "/v1/cluster/membership")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var view api.MembershipView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return 0, err
	}
	alive := 0
	for _, m := range view.Members {
		if m.Status == string(cluster.StatusAlive) {
			alive++
		}
	}
	return alive, nil
}

// stop leaves the cluster, stops the worker pools and closes every listener,
// returning once each Serve goroutine has ended.
func (c *clusterUp) stop() {
	for _, d := range c.members {
		d.srv.Close()
	}
	for _, d := range c.members {
		d.hs.Close()
		<-d.served
	}
}

// ranked orders the members for one fingerprint: owner, replica, bystander.
func (c *clusterUp) ranked(fp [32]byte) []string { return cluster.Ranked(fp, c.urls) }

func (c *clusterUp) member(url string) *daemon {
	for _, d := range c.members {
		if d.url == url {
			return d
		}
	}
	return nil
}

// loadClient is one closed-loop client: its own connection pool and one
// typed client per daemon.
type loadClient struct {
	tr *http.Transport
	to map[string]*client.Client
}

func newLoadClient(urls []string) *loadClient {
	lc := &loadClient{tr: &http.Transport{MaxIdleConnsPerHost: 4}, to: map[string]*client.Client{}}
	hc := &http.Client{Transport: lc.tr}
	for _, u := range urls {
		cl := client.New(u)
		cl.HTTPClient = hc
		lc.to[u] = cl
	}
	return lc
}

// ask sends one single-spec POST /v1/runs to the daemon at url.
func (lc *loadClient) ask(url string, spec api.Spec) (api.RunResult, error) {
	resp, err := lc.to[url].Runs(context.Background(), api.RunRequest{Specs: []api.Spec{spec}}, false)
	if err != nil {
		return api.RunResult{}, err
	}
	if len(resp.Results) != 1 {
		return api.RunResult{}, fmt.Errorf("%d results for one spec", len(resp.Results))
	}
	return resp.Results[0], nil
}

// phaseOut is what one closed-loop phase measured.
type phaseOut struct {
	latMS  []float64 // every call
	batchS []float64 // every full batch of calls, start to end
	batchP []float64 // the median call latency of every full batch, in seconds
	errors []error
}

// closedLoop calls do(i) for i in [0, n) back to back from this one
// goroutine, the next call only after the previous one returned, and times
// every call and every batch of `batch` calls. One client, because the
// daemons answer in this same process: the client, the handler and the
// store already keep a core busy between them, and a second client on a
// two-core host times the scheduler instead.
func closedLoop(n, batch int, do func(i int) error) phaseOut {
	out := phaseOut{latMS: make([]float64, 0, n)}
	quiesce()
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			s := time.Now()
			err := do(i)
			out.latMS = append(out.latMS, ms(time.Since(s)))
			if err != nil {
				out.errors = append(out.errors, err)
			}
		}
		if hi-lo == batch {
			out.batchS = append(out.batchS, time.Since(t0).Seconds())
			out.batchP = append(out.batchP, median(out.latMS[lo:hi])/1e3)
		}
	}
	return out
}

// serviceRound is one round of the service workload against three freshly
// started daemons.
//
//	hit      stored specs asked of their owner                  -> main_*
//	forward  stored specs asked of the member holding no copy:
//	         one record probe across to its peers               -> alt_per_s
//	miss     cold tiny specs submitted as handles and polled:
//	         execute + store write + checkpoint bank + replicate -> write_per_s
func serviceRound(e *env, z serviceSizes, in *serviceInputs, o *roundOut) error {
	root := e.thread("service")
	defer root.End()
	// The daemons and their client share one scheduler thread. A request is
	// a chain of goroutine hand-offs (client, connection, handler, store),
	// and spread over several threads each hand-off waits for the hypervisor
	// to wake a core: that wait, not the program, then decides the latency.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mem := markMem()
	dig := newDigest()

	// Set-up: daemons, membership, hit set on owner and replica. It is done
	// z.Setups times for as many samples; the last cluster serves the round.
	var c *clusterUp
	for i := 0; i < z.Setups; i++ {
		if c != nil {
			c.stop()
		}
		setup := root.Child("setup")
		t0 := time.Now()
		var converge time.Duration
		var err error
		if c, converge, err = startCluster(e, daemons); err != nil {
			return err
		}
		for _, s := range in.hit {
			for _, url := range c.ranked(s.fp)[:replicas] {
				if err := c.member(url).store.Put(s.fp, s.wire.Key, s.run, s.stats); err != nil {
					c.stop()
					return err
				}
			}
		}
		o.setup.add("", 1, time.Since(t0).Seconds())
		setup.End()
		o.obs("cluster.join_converge_ms", ms(converge))
	}
	defer c.stop()
	for _, s := range in.hit {
		dig.add(s.stats)
	}

	lc := newLoadClient(c.urls)
	defer lc.tr.CloseIdleConnections()
	var nErrors int
	report := func(phase string, p phaseOut) {
		if len(p.errors) > 0 {
			nErrors += len(p.errors)
			o.failN(len(p.errors), "%s: %d of %d failed, first: %v", phase, len(p.errors), len(p.latMS), p.errors[0])
		}
	}
	// cachedAnswer sends a stored spec to the member at the given rank and
	// checks the answer is the stored result, served without executing.
	cachedAnswer := func(sp *obs.Span, rank int, crossed *int) func(i int) error {
		return func(i int) error {
			s := in.hit[i%len(in.hit)]
			url := c.ranked(s.fp)[rank]
			var rs *obs.Span
			if e.traced() {
				rs = sp.Child("POST /v1/runs")
				defer rs.End()
			}
			res, err := lc.ask(url, s.wire)
			switch {
			case err != nil:
				return err
			case !res.Cached || res.Status != api.StatusDone || res.Stats == nil:
				return fmt.Errorf("%s: not answered from a store (cached=%v status=%s)", s.wire.Key, res.Cached, res.Status)
			case !reflect.DeepEqual(*res.Stats, s.stats):
				return fmt.Errorf("%s: answer differs from the stored result", s.wire.Key)
			}
			if crossed != nil && res.Peer != url {
				*crossed++
			}
			return nil
		}
	}

	// hit
	sp := root.Child("hit")
	hit := closedLoop(z.Hits, z.Batch, cachedAnswer(sp, 0, nil))
	sp.End()
	report("hit", hit)
	o.ops += len(hit.latMS)
	for i, s := range hit.batchS {
		o.main.add("", float64(z.Batch), s)
		o.mainLat.add("", 1, hit.batchP[i])
	}
	o.obs("server.hit_p99_ms", percentile(hit.latMS, 99))

	// forward
	var crossed int
	sp = root.Child("forward")
	fwd := closedLoop(z.Forwards, z.Batch, cachedAnswer(sp, replicas, &crossed))
	sp.End()
	report("forward", fwd)
	o.ops += len(fwd.latMS)
	for _, s := range fwd.batchS {
		o.alt.add("", float64(z.Batch), s)
	}
	o.obs("cluster.forward_p50_ms", median(fwd.latMS))
	o.obs("cluster.forward_p99_ms", percentile(fwd.latMS, 99))
	o.obs("cluster.replica_hit_ratio", ratio(float64(crossed), float64(len(fwd.latMS))))

	// miss
	var (
		polls     int
		lagMS     []float64
		queueMS   []float64
		missStats = make([]*gpu.RunStats, len(in.miss))
	)
	sp = root.Child("miss")
	miss := closedLoop(len(in.miss), 1, func(idx int) error {
		s := in.miss[idx]
		rankedURLs := c.ranked(s.fp)
		owner := lc.to[rankedURLs[0]]
		rs := sp.Child("miss " + s.wire.Key)
		defer rs.End()
		res, err := lc.ask(rankedURLs[0], s.wire)
		if err != nil {
			return err
		}
		if res.Cached || res.JobID == "" {
			return fmt.Errorf("%s: expected a job handle, got cached=%v status=%s", s.wire.Key, res.Cached, res.Status)
		}
		n := 0
		var st *api.JobStatus
		for {
			n++
			if st, err = owner.Job(context.Background(), res.JobID); err != nil {
				return err
			}
			if api.IsTerminal(st.Status) {
				break
			}
			time.Sleep(missPoll)
		}
		done := time.Now()
		if st.Status != api.StatusDone || st.Stats == nil {
			return fmt.Errorf("%s: job ended %s: %s", s.wire.Key, st.Status, st.Error)
		}
		// The record must become visible on the replica.
		replica := lc.to[rankedURLs[1]]
		for {
			lr, err := replica.LookupRecords(context.Background(), api.LookupRequest{Fingerprints: []string{simstore.Hex(s.fp)}})
			if err != nil {
				return err
			}
			if len(lr.Records) == 1 {
				if !reflect.DeepEqual(lr.Records[0].Stats, *st.Stats) {
					return fmt.Errorf("%s: replica holds different statistics", s.wire.Key)
				}
				break
			}
			if time.Since(done) > 5*time.Second {
				return fmt.Errorf("%s: never replicated to %s", s.wire.Key, rankedURLs[1])
			}
			time.Sleep(missPoll)
		}
		lag := ms(time.Since(done))
		var queued float64
		if e.traced() {
			queued, err = queueWaitMS(rankedURLs[0], res.JobID)
			if err != nil {
				return err
			}
		}
		polls += n
		lagMS = append(lagMS, lag)
		queueMS = append(queueMS, queued)
		missStats[idx] = st.Stats
		return nil
	})
	sp.End()
	report("miss", miss)
	o.ops += len(in.miss)
	for _, s := range miss.batchS {
		o.write.add("", 1, s)
	}
	for i, st := range missStats {
		if st == nil {
			continue
		}
		o.checkStats(in.miss[i].run, *st)
		dig.add(*st)
	}
	o.obs("server.miss_p50_ms", median(miss.latMS))
	o.obs("server.polls_per_miss", ratio(float64(polls), float64(len(in.miss))))
	o.obs("cluster.replication_lag_ms", median(lagMS))
	if e.traced() {
		o.obs("server.miss_queue_wait_ms", median(queueMS))
	}
	o.obs("server.errors", float64(nErrors))
	// Not a reported metric: runWorkload subtracts the handler probe from it
	// to get client.roundtrip_overhead_us.
	o.obs(hitP50Key, median(hit.latMS))

	mb, _ := mem.since()
	o.allocMB = append(o.allocMB, mb)
	o.closeRound(dig)
	return nil
}

// queueWaitMS reads a finished job's queue-wait span from its timeline.
func queueWaitMS(url, jobID string) (float64, error) {
	resp, err := http.Get(url + "/v1/jobs/" + jobID + "/timeline")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("timeline of %s: HTTP %d", jobID, resp.StatusCode)
	}
	var tl api.JobTimeline
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		return 0, err
	}
	var wait float64
	found := false
	walkSpans(tl.Spans, func(s *obs.SpanJSON) {
		if s.Name == "queue-wait" {
			wait, found = float64(s.DurUS)/1e3, true
		}
	})
	if !found {
		return 0, errors.New("timeline has no queue-wait span")
	}
	return wait, nil
}
