package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/simstore"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Probes are the isolated drivers of a traced run: each times calls into one
// layer's exported functions, fed by the workload's representative spec (its
// own op and address stream, its own snapshot, its own record).

const (
	probeOps        = 200_000 // primitive operations per probe
	probeLoopCycles = 2_000   // cold cycles through the outside-in loop
	probeWarmCycles = 2_000   // warm-up before the snapshot probes
)

// nsPerOp times n calls of f.
func nsPerOp(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianOf times reps calls of f and returns the median duration.
func medianOf(reps int, f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// runProbes runs every probe against the representative spec rep (one
// workload on a static LLC organization).
func runProbes(e *env, rep sweep.RunSpec, o *roundOut) error {
	root := e.thread("probes")
	defer root.End()
	var err error
	step := func(name string, f func() error) {
		if err != nil {
			return
		}
		timed(root, name, func() {
			if err = f(); err != nil {
				err = fmt.Errorf("probe %s: %w", name, err)
			}
		})
	}
	step("primitives", func() error { return probePrimitives(rep, o) })
	step("looptrace", func() error { return probeLoop(rep, probeLoopCycles, o) })
	var blob []byte
	var stats gpu.RunStats
	step("checkpoint", func() (err error) { blob, stats, err = probeCheckpoint(rep, o); return })
	step("simstore", func() error { return probeStore(e, rep, stats, blob, o) })
	step("cluster", func() error { return probeRanking(rep, o) })
	step("server", func() error { return probeHandler(e, rep, stats, o) })
	return err
}

// probePrimitives feeds the hot-path primitives with the op stream the
// workload's generator produces for the baseline GPU.
func probePrimitives(rep sweep.RunSpec, o *roundOut) error {
	cfg := rep.Config.Normalize()
	gen, err := workload.NewGenerator(rep.Workloads[0], cfg, rep.Seed)
	if err != nil {
		return err
	}
	type access struct {
		addr    uint64
		write   bool
		cluster int
	}
	var accesses []access
	perCluster := cfg.SMsPerCluster()
	o.obs("workload.nextop_ns", nsPerOp(probeOps, func(i int) {
		smID := i % cfg.NumSMs
		op := gen.NextOp(smID, (i/cfg.NumSMs)%cfg.MaxWarpsPerSM)
		if op.IsMem {
			accesses = append(accesses, access{op.Addr, op.Write, smID / perCluster})
		}
	}))
	if len(accesses) == 0 {
		return fmt.Errorf("%s issued no memory operation in %d ops", rep.Workloads[0].Abbr, probeOps)
	}
	at := func(i int) access { return accesses[i%len(accesses)] }

	mapper, err := newMapper(cfg)
	if err != nil {
		return err
	}
	var sink int
	o.obs("addrmap.map_ns", nsPerOp(probeOps, func(i int) { sink += mapper.Map(at(i).addr).Bank }))

	l1 := cache.New(cache.Config{SizeBytes: cfg.L1SizeBytes, Ways: cfg.L1Ways, LineBytes: cfg.L1LineBytes, Policy: cache.WriteThrough})
	o.obs("cache.access_ns", nsPerOp(probeOps, func(i int) {
		a := at(i)
		kind := cache.Read
		if a.write {
			kind = cache.Write
		}
		if l1.Access(a.addr, kind, -1).Hit {
			sink++
		}
	}))

	// One scan per memory operation, as the L1 and LLC use the table; the
	// oldest line completes once half the entries are outstanding.
	mshr := cache.NewMSHRTable[uint64](cfg.L1MSHRs, 0)
	var outstanding ring.Deque[uint64]
	o.obs("cache.mshr_probe_commit_ns", nsPerOp(probeOps, func(i int) {
		line := l1.LineAddr(at(i).addr)
		if p := mshr.Probe(line); p.CanAccept() && mshr.Commit(p, uint64(i)) {
			outstanding.PushBack(line)
		}
		if outstanding.Len() > cfg.L1MSHRs/2 {
			mshr.Complete(outstanding.PopFront())
		}
	}))

	var q ring.Deque[*mem.Request]
	req := &mem.Request{}
	o.obs("ring.pushpop_ns", nsPerOp(probeOps, func(i int) {
		q.PushBack(req)
		if q.Len() >= 8 {
			for q.Len() > 0 {
				q.PopFront()
			}
		}
	}))

	var fl pool.FreeList[mem.Request]
	var held ring.Deque[*mem.Request]
	o.obs("pool.getput_ns", nsPerOp(probeOps, func(i int) {
		held.PushBack(fl.Get())
		if held.Len() >= 32 {
			fl.Put(held.PopFront())
		}
	}))

	acfg := cfg
	acfg.LLCMode = config.LLCAdaptive
	ctrl, err := core.NewController(acfg) // a fresh controller is profiling
	if err != nil {
		return err
	}
	o.obs("core.observe_ns", nsPerOp(probeOps, func(i int) {
		a := at(i)
		loc := mapper.Map(a.addr)
		ctrl.ObserveRequest(a.addr, a.cluster, loc.Channel, loc.Channel*cfg.LLCSlicesPerMC+loc.Slice)
	}))
	_ = sink
	return nil
}

// probeCheckpoint times direct Save / Encode / Decode / Restore calls on a
// warmed GPU running rep, and returns the encoded snapshot and the
// statistics of a short run for the store probes to file.
func probeCheckpoint(rep sweep.RunSpec, o *roundOut) ([]byte, gpu.RunStats, error) {
	newProg := func() (workload.Program, error) {
		prog, _, err := sweep.BuildProgram(rep)
		return prog, err
	}
	prog, err := newProg()
	if err != nil {
		return nil, gpu.RunStats{}, err
	}
	g, err := gpu.New(rep.Config, prog)
	if err != nil {
		return nil, gpu.RunStats{}, err
	}
	g.Warmup(probeWarmCycles)

	const reps = 3
	var snap *checkpoint.Snapshot
	d, err := medianOf(reps, func() (err error) { snap, err = checkpoint.Save(g); return })
	if err != nil {
		return nil, gpu.RunStats{}, err
	}
	o.obs("checkpoint.save_ms", ms(d))
	var blob []byte
	if d, err = medianOf(reps, func() (err error) { blob, err = checkpoint.Encode(snap); return }); err != nil {
		return nil, gpu.RunStats{}, err
	}
	o.obs("checkpoint.encode_ms", ms(d))
	o.obs("checkpoint.encode_mb_per_s", float64(len(blob))/(1<<20)/d.Seconds())
	o.obs("checkpoint.blob_kb", float64(len(blob))/1024)

	mem := markMem()
	var decoded *checkpoint.Snapshot
	if d, err = medianOf(reps, func() (err error) { decoded, err = checkpoint.Decode(blob); return }); err != nil {
		return nil, gpu.RunStats{}, err
	}
	mb, objects := mem.since()
	o.obs("checkpoint.decode_ms", ms(d))
	o.obs("checkpoint.decode_alloc_kb", mb*1024/reps)
	o.obs("checkpoint.decode_allocs_k", objects/1e3/reps)

	mem = markMem()
	var restored *gpu.GPU
	if d, err = medianOf(reps, func() error {
		p, err := newProg()
		if err != nil {
			return err
		}
		restored, err = checkpoint.Restore(rep.Config, p, decoded)
		return err
	}); err != nil {
		return nil, gpu.RunStats{}, err
	}
	mb, objects = mem.since()
	o.obs("checkpoint.restore_ms", ms(d))
	o.obs("checkpoint.restore_alloc_kb", mb*1024/reps)
	o.obs("checkpoint.restore_allocs_k", objects/1e3/reps)

	// The restored GPU must continue exactly as the original does.
	a, b := g.Run(probeLoopCycles, 1), restored.Run(probeLoopCycles, 1)
	if !bytes.Equal(statsJSON(a), statsJSON(b)) {
		o.fail("probe checkpoint: restored GPU diverged from the original")
	}
	return blob, a, nil
}

// probeStore times the content-addressed store on records and blobs of the
// workload's own shape.
func probeStore(e *env, rep sweep.RunSpec, stats gpu.RunStats, blob []byte, o *roundOut) error {
	const n = 32
	specs := make([]sweep.RunSpec, n)
	fps := make([][32]byte, n)
	var err error
	o.obs("simstore.fingerprint_us", nsPerOp(n, func(i int) {
		specs[i] = rep
		specs[i].Seed = rep.Seed + int64(i)
		var ferr error
		if fps[i], ferr = simstore.Fingerprint(specs[i]); ferr != nil {
			err = ferr
		}
	})/1e3)
	if err != nil {
		return err
	}
	dir, err := e.tempDir("probe-store-*")
	if err != nil {
		return err
	}
	store, err := simstore.Open(dir, simstore.Options{})
	if err != nil {
		return err
	}
	o.obs("simstore.put_us", nsPerOp(n, func(i int) {
		if perr := store.Put(fps[i], specs[i].Key, specs[i], stats); perr != nil {
			err = perr
		}
	})/1e3)
	o.obs("simstore.get_us", nsPerOp(n, func(i int) {
		if _, ok := store.Get(fps[i]); !ok {
			err = fmt.Errorf("record %d missing after Put", i)
		}
	})/1e3)
	o.obs("simstore.putblob_us", nsPerOp(n, func(i int) {
		if perr := store.PutBlob(fps[i], blob); perr != nil {
			err = perr
		}
	})/1e3)
	o.obs("simstore.getblob_us", nsPerOp(n, func(i int) {
		if data, ok := store.GetBlob(fps[i]); !ok || len(data) != len(blob) {
			err = fmt.Errorf("blob %d missing or truncated after PutBlob", i)
		}
	})/1e3)
	if err != nil {
		return err
	}
	d, err := medianOf(5, func() error {
		s, err := simstore.Open(dir, simstore.Options{})
		if err == nil && s.Len() != 2*n {
			err = fmt.Errorf("re-opened store indexes %d entries, want %d", s.Len(), 2*n)
		}
		return err
	})
	o.obs("simstore.open_ms", ms(d))
	return err
}

// probeRanking times rendezvous ranking over 2 and 8 members.
func probeRanking(rep sweep.RunSpec, o *roundOut) error {
	fp, err := simstore.Fingerprint(rep)
	if err != nil {
		return err
	}
	var members []string
	for i := 0; i < 8; i++ {
		members = append(members, fmt.Sprintf("http://127.0.0.1:%d", 8400+i))
	}
	var sink int
	for _, n := range []int{2, 8} {
		peers := members[:n]
		o.obs(fmt.Sprintf("cluster.ranked%d_ns", n), nsPerOp(5_000, func(i int) {
			fp[0] = byte(i)
			sink += len(cluster.Ranked(fp, peers)[0])
		}))
	}
	_ = sink
	return nil
}

// probeHandler times one daemon's handler with no socket in the way: a
// cached POST /v1/runs, a /metrics scrape, and the registry render under it.
func probeHandler(e *env, rep sweep.RunSpec, stats gpu.RunStats, o *roundOut) error {
	dir, err := e.tempDir("probe-simd-*")
	if err != nil {
		return err
	}
	store, err := simstore.Open(dir, simstore.Options{})
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Store: store, Workers: 1})
	if err != nil {
		return err
	}
	defer srv.Close()
	fp, err := simstore.Fingerprint(rep)
	if err != nil {
		return err
	}
	if err := store.Put(fp, rep.Key, rep, stats); err != nil {
		return err
	}
	body, err := json.Marshal(api.RunRequest{Specs: []api.Spec{api.FromRunSpec(rep)}})
	if err != nil {
		return err
	}
	h := srv.Handler()
	serve := func(method, path string, body []byte) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, rec.Body.String())
		}
		return rec, nil
	}
	rec, err := serve(http.MethodPost, "/v1/runs", body)
	if err != nil {
		return err
	}
	var resp api.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return err
	}
	if len(resp.Results) != 1 || !resp.Results[0].Cached {
		return fmt.Errorf("handler did not answer the stored spec from the store")
	}
	o.obs("server.handler_hit_us", nsPerOp(300, func(int) {
		if _, serr := serve(http.MethodPost, "/v1/runs", body); serr != nil {
			err = serr
		}
	})/1e3)
	o.obs("server.metrics_render_ms", nsPerOp(20, func(int) {
		if _, serr := serve(http.MethodGet, "/metrics", nil); serr != nil {
			err = serr
		}
	})/1e6)
	var sink int
	o.obs("obs.registry_render_us", nsPerOp(20, func(int) { sink += len(srv.Registry().Exposition()) })/1e3)
	_ = sink
	return err
}
