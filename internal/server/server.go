// Package server exposes the simulator as a network service: an HTTP/JSON
// API over the sweep engine, fronted by the content-addressed result store
// (internal/simstore) and an asynchronous job queue with bounded simulation
// workers, in-flight deduplication and per-job cancellation.
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/runs            submit one spec or a batch; cached results are
//	                         returned inline, misses get job IDs to poll
//	GET  /v1/runs/{id}       job status + statistics when done; the one way
//	                         to wait
//	GET  /v1/jobs/{id}/timeline  span tree of the job's lifecycle phases
//	                         (queue wait, checkpoint probe/restore, warmup,
//	                         kernel segments, measure window)
//	POST /v1/jobs/{id}/cancel  cancel a queued run
//	GET  /v1/cluster/membership  this daemon's gossip view (epoch + member
//	                         statuses), no cross-member round-trips
//	GET  /healthz            liveness + this daemon's store/queue summary
//	GET  /metrics            Prometheus text exposition (internal/obs)
//
// Determinism makes the cache exact, not approximate: a spec's fingerprint
// (simstore.Fingerprint) identifies its RunStats bit-for-bit, so a cache
// hit is byte-identical to re-running the simulation.
//
// In cluster mode daemons shard the result store by run fingerprint using
// rendezvous hashing (internal/cluster): any daemon accepts any request,
// but each spec executes — and its record is stored — on its
// hash-designated owner. Membership is gossip-based with seed-node bootstrap
// (Config.Seeds/Gossip): daemons join and leave without restarting the
// others, and routing re-ranks on every membership epoch. With
// Config.Replicas > 1 each stored record and checkpoint blob is pushed to
// the top-K ranked members, so a killed owner's results are served
// byte-identical from a warm replica instead of re-executed; reads check
// the local store, then probe the ranked members, owners first and each at
// most once (POST /v1/records/lookup), then forward. routing.go is that one
// read path and the only code that knows how a spec finds its owner: POST
// /v1/runs hands it its whole batch, and clients route nothing — any member
// is a valid entry point, one hop away. Cross-owner forwarding is
// handle-based: the forwarder gets the owner's job ID back immediately and
// hands it on to the client, who polls it at the owner — no request ever
// blocks for the length of a simulation, and nothing on the server side
// waits for one. A job ID names the member that minted it, so a status,
// cancel or timeline request that lands elsewhere is answered with a 307 to
// the owner (or a 404): nothing about a job travels server to server. Finished
// jobs are retained in memory only per the Config.JobTTL/MaxJobs policy;
// evicted job IDs answer 404 while their statistics remain in the store.
//
// The daemon serves runs, not figures: paperfigs -server regenerates figures
// locally and submits each figure's declared runs as one POST /v1/runs
// (client.Pool, which polls the handles and resubmits a lost one).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/jsonplan"
	"repro/internal/obs"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// Default finished-job retention policy (the cmd/simd flag defaults).
// Finished jobs are kept in memory so clients can poll their results; an
// unbounded map is a memory leak under sustained traffic, so the daemon
// evicts terminal jobs after DefaultJobTTL and whenever more than
// DefaultMaxJobs are retained. The statistics themselves live on in the
// content-addressed store — eviction only forgets the job ID.
const (
	DefaultJobTTL  = 15 * time.Minute
	DefaultMaxJobs = 1000
)

// Config assembles a Server.
type Config struct {
	// Store is the result store (required).
	Store *simstore.Store
	// Workers bounds concurrent simulations; 0 uses GOMAXPROCS.
	Workers int

	// JobTTL evicts finished jobs older than this (0 keeps them forever);
	// MaxJobs caps the retained job count (0 = unbounded). cmd/simd passes
	// DefaultJobTTL / DefaultMaxJobs unless overridden by flags.
	JobTTL  time.Duration
	MaxJobs int

	// Checkpoints makes every executed run checkpoint-assisted: GPU state
	// snapshots at warmup end and kernel boundaries are banked as blobs in
	// Store, and later runs sharing a prefix resume from them instead of
	// re-simulating it. Statistics are byte-identical either way — this only
	// changes wall-clock time and store disk usage.
	Checkpoints bool

	// Self is this daemon's advertised base URL (the address other members
	// and clients reach it at).
	Self string

	// Seeds enables cluster mode through gossip membership: the daemon
	// bootstraps by contacting any live seed and thereafter tracks the
	// cluster through heartbeats (join/leave/suspicion, no restarts).
	// Gossip enables it with no seeds — the first daemon of a new cluster,
	// which others will point their -seeds at. Neither means single-node
	// operation.
	Seeds  []string
	Gossip bool

	// Replicas is the replication factor: every stored record and
	// checkpoint blob is pushed to the top-Replicas rendezvous-ranked
	// members (the owner counts as one), and reads probe that many ranked
	// members plus one before re-executing anything. <= 1 disables
	// replication.
	Replicas int

	// Heartbeat is the gossip period (default 1s); DeadAfter defaults to
	// 12x of it, and a member is suspected after 4x. Only meaningful in
	// cluster mode.
	Heartbeat time.Duration
	DeadAfter time.Duration

	// Logger, when non-nil, receives one structured access-log line per HTTP
	// request (request ID, route pattern, status, duration). nil disables
	// access logging; metrics are recorded either way.
	Logger *slog.Logger
}

// Server is the simd HTTP handler plus its job queue and (in cluster mode)
// its view of the peer membership.
type Server struct {
	store   *simstore.Store
	queue   *Queue
	ckpt    *checkpoint.Manager // nil unless Config.Checkpoints
	mux     *http.ServeMux
	started time.Time

	node     *cluster.Node // nil single-node
	selfAddr string        // advertised URL, if known (even single-node)
	replicas int

	pcMu        sync.RWMutex
	peerClients map[string]*client.Client // lazily built; members come and go

	metrics *serverMetrics
	logger  *slog.Logger

	forwarded   uint64 // atomic: specs sent to another ranked member
	replicaHits uint64 // atomic: reads served from a non-owner's warm copy
	replPushed  uint64 // atomic: records+blobs pushed to replicas
	replRecv    uint64 // atomic: records+blobs accepted from peers
	replErrors  uint64 // atomic: failed replica pushes / rejected receipts
	readRepairs uint64 // atomic: records re-pushed after an off-owner read
}

// New builds a Server and starts its worker pool; Close releases it. The
// only error source is an invalid cluster configuration.
func New(cfg Config) (*Server, error) {
	s := &Server{
		store:       cfg.Store,
		mux:         http.NewServeMux(),
		started:     time.Now(),
		selfAddr:    cluster.Normalize(cfg.Self),
		replicas:    cfg.Replicas,
		peerClients: make(map[string]*client.Client),
	}
	// The checkpointer is handed to the queue as an interface; keep the nil
	// case a true nil interface, not a typed nil *Manager.
	var cp sweep.Checkpointer
	if cfg.Checkpoints {
		s.ckpt = checkpoint.NewManager(cfg.Store)
		cp = s.ckpt
	}
	s.queue = NewQueue(cfg.Store, cfg.Workers, cfg.JobTTL, cfg.MaxJobs, cp, s.selfAddr)
	if len(cfg.Seeds) > 0 || cfg.Gossip {
		ncfg := cluster.NodeConfig{
			Self:           cfg.Self,
			Seeds:          cfg.Seeds,
			HeartbeatEvery: cfg.Heartbeat,
			DeadAfter:      cfg.DeadAfter,
		}
		if cfg.Logger != nil {
			log := cfg.Logger
			ncfg.OnChange = func(epoch uint64, members []string) {
				log.Info("cluster membership changed", "epoch", epoch, "members", len(members))
			}
		}
		n, err := cluster.NewNode(ncfg)
		if err != nil {
			s.queue.Close()
			return nil, err
		}
		s.node = n
		s.mux.Handle("POST "+cluster.GossipPath, n.Handler())
		if cfg.Replicas > 1 {
			s.queue.OnStored(s.replicateRecord)
			if s.ckpt != nil {
				s.ckpt.OnSave(s.replicateBlob)
			}
		}
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleRuns)
	s.mux.HandleFunc("POST /v1/records/lookup", s.handleRecordLookup)
	s.mux.HandleFunc("POST /v1/replicate", s.handleReplicate)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleJobTimeline)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/cluster/membership", s.handleMembership)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Built last: the registry's sampling funcs close over the queue, the
	// cluster view and the checkpoint manager assembled above.
	s.logger = cfg.Logger
	s.metrics = newServerMetrics(s)
	s.queue.Instrument(s.metrics.queueWait, s.metrics.runDuration, s.metrics.storeWrite)
	if s.node != nil {
		s.node.Start()
	}
	return s, nil
}

// Self returns the daemon's advertised cluster address ("" single-node).
func (s *Server) Self() string {
	if s.node == nil {
		return ""
	}
	return s.node.Self()
}

// peerClient returns (lazily building) the typed client for a member.
// Members come and go, so the map grows on demand; stale entries are
// harmless.
func (s *Server) peerClient(addr string) *client.Client {
	s.pcMu.RLock()
	c := s.peerClients[addr]
	s.pcMu.RUnlock()
	if c != nil {
		return c
	}
	s.pcMu.Lock()
	defer s.pcMu.Unlock()
	if c := s.peerClients[addr]; c != nil {
		return c
	}
	c = client.New(addr)
	s.peerClients[addr] = c
	return c
}

// Handler returns the HTTP handler: the API mux wrapped in the telemetry
// middleware (request metrics, X-Request-Id, access logs).
func (s *Server) Handler() http.Handler { return s.withTelemetry(s.mux) }

// Registry exposes the server's metric registry (tests lint it; embedders
// may add their own series).
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Workers returns the resolved simulation worker-pool size.
func (s *Server) Workers() int { return s.queue.Stats().Workers }

// Close leaves the cluster gracefully (peers drop this member without
// waiting out suspicion timers) and stops the worker pool (running
// simulations finish first).
func (s *Server) Close() {
	if s.node != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		s.node.Stop(ctx)
		cancel()
	}
	s.queue.Close()
}

// writeJSON answers code with v encoded as json.NewEncoder encodes it,
// trailing newline included, and its length declared (see body.go).
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bodies.Get().(*[]byte)
	b := bytes.NewBuffer((*buf)[:0])
	if err := json.NewEncoder(b).Encode(v); err != nil {
		bodies.Put(buf)
		writeError(w, http.StatusInternalServerError, "encode answer: %v", err)
		return
	}
	*buf = b.Bytes()
	writeBody(w, code, buf)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds request bodies; batch specs are small.
const maxRequestBytes = 16 << 20

// readJSON reads r's body, at most limit bytes of it, and decodes it into
// v. On failure it answers — 413 naming the limit for a longer body, 400
// for an unreadable one or bad JSON — and returns false.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) ([]byte, bool) {
	body, err := api.ReadBody(nil, http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
	case err != nil:
		writeError(w, http.StatusBadRequest, "read body: %v", err)
	default:
		if err = jsonplan.Unmarshal(body, v); err == nil {
			return body, true
		}
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
	}
	return nil, false
}

// handleRuns implements POST /v1/runs: resolve every spec, answer what the
// cluster read path (routing.go) can — store hits inline, forwarded misses
// as job handles on their owners; any daemon is a valid entry point — and
// enqueue the rest here (deduplicated against in-flight jobs). The response
// never waits for a simulation: misses carry job IDs to poll.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	body, ok := readJSON(w, r, maxRequestBytes, &req)
	if !ok {
		return
	}
	if len(req.Specs) == 0 {
		// Accept a bare Spec object as a single-run request.
		var one api.Spec
		if err := jsonplan.Unmarshal(body, &one); err == nil &&
			(len(one.Benchmarks) > 0 || len(one.Workloads) > 0) {
			req.Specs = []api.Spec{one}
		}
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, `no specs (send {"specs":[...]} or a bare spec object)`)
		return
	}

	// Resolve and validate the whole batch before enqueueing anything: a bad
	// spec at the end of the list must not leave the earlier ones already
	// simulating against an error response that references no jobs.
	batch := make([]routedSpec, len(req.Specs))
	for i, wireSpec := range req.Specs {
		spec, err := wireSpec.ToRunSpec()
		if err != nil {
			writeError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return
		}
		batch[i] = newRouted(wireSpec, spec)
	}

	// Forwarded requests are always executed here (at most one hop).
	// Forwards happen before any local enqueue, so a spec whose every
	// remote candidate fails cleanly falls back to the local path below.
	if r.Header.Get(api.ForwardedHeader) == "" {
		if s.resolve(r.Context(), batch); r.Context().Err() != nil {
			s.cancelOwn(batch)
			return // disconnected mid-forward; the response has no reader
		}
	}

	results := make([]api.RawRunResult, len(batch))
	for i := range batch {
		it := &batch[i]
		if !it.handled { // else answered by a store or a ranked member
			if err := s.enqueue(it); err != nil {
				// An error response must not leave orphaned simulations
				// behind, here or on the members the forwards reached.
				s.cancelOwn(batch)
				writeError(w, http.StatusServiceUnavailable, "spec %d: %v", i, err)
				return
			}
		}
		results[i] = it.res
	}
	writeRuns(w, results)
}

// jobOwner is the member a job this daemon does not hold lives on, if it
// lives anywhere: the one member whose tag the ID carries (jobIDBase). ""
// single-node, for an ID no member minted, for this daemon's own tag (the job
// is gone, and a redirect to itself would loop), and for two members whose
// address hashes collide in the tag — which costs the handle, not a wrong
// answer.
func (s *Server) jobOwner(id string) string {
	if s.node == nil || len(id) < 9 || id[0] != 'j' {
		return ""
	}
	owner := ""
	for _, m := range s.node.Members() {
		if ownerTag(m) != id[1:9] {
			continue
		}
		if owner != "" || m == s.node.Self() {
			return ""
		}
		owner = m
	}
	return owner
}

// jobMiss answers a status, cancel or timeline request for a job this daemon
// does not hold: a 307 to the same path on the member its ID names, at no
// cluster-internal request, or a 404.
func (s *Server) jobMiss(w http.ResponseWriter, r *http.Request, id string) {
	if owner := s.jobOwner(id); owner != "" {
		http.Redirect(w, r, owner+r.URL.EscapedPath(), http.StatusTemporaryRedirect)
		return
	}
	writeError(w, http.StatusNotFound, "no job %q", id)
}

// serveJob answers a status or cancel request from the local queue, or else
// with jobMiss.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, local func(string) (api.JobStatus, bool)) {
	id := r.PathValue("id")
	if st, ok := local(id); ok {
		st.Peer = s.Self()
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.jobMiss(w, r, id)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.serveJob(w, r, s.queue.Job)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.serveJob(w, r, s.queue.Cancel)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	qs := s.queue.Stats()
	writeJSON(w, http.StatusOK, api.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		StoreDir:      s.store.Dir(),
		StoreEntries:  s.store.Len(),
		Workers:       qs.Workers,
		Queued:        qs.Queued,
		Running:       qs.Running,
		JobsTracked:   qs.Tracked,
		Self:          s.Self(),
	})
}

// handleMembership implements GET /v1/cluster/membership: this daemon's
// gossip view, at no cross-member round-trips — cheap enough for client pools
// to poll on a short TTL. A single-node daemon reports itself as the only
// member (selfAddr is known whenever cmd/simd started us: it always derives
// an advertised URL; library embedders without one report no members).
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	view := api.MembershipView{}
	if s.node == nil {
		if s.selfAddr != "" {
			view.Members = []api.MemberEntry{{Addr: s.selfAddr, Self: true}}
		}
		writeJSON(w, http.StatusOK, view)
		return
	}
	view.Epoch = s.node.Epoch()
	for _, m := range s.node.MemberEntries() {
		view.Members = append(view.Members, api.MemberEntry{
			Addr: m.Addr, Self: m.Addr == s.node.Self(), Status: string(m.Status),
		})
	}
	writeJSON(w, http.StatusOK, view)
}

// handleMetrics implements GET /metrics: the full registry rendered as
// Prometheus text exposition. Point-in-time families sample their
// subsystems here, at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteExposition(w)
}

// handleJobTimeline implements GET /v1/jobs/{id}/timeline: the span tree a
// job's trace recorded (queue wait, checkpoint probe/restore, warmup,
// kernel segments, measure window), or jobMiss.
func (s *Server) handleJobTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if tl, ok := s.queue.Timeline(id); ok {
		tl.Peer = s.Self()
		writeJSON(w, http.StatusOK, tl)
		return
	}
	s.jobMiss(w, r, id)
}
