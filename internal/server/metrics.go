package server

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
)

// serverMetrics owns the daemon's obs.Registry and the instruments the
// request path and job queue write into. Point-in-time values (queue depth,
// store sizes, subsystem counters) register as sampling funcs over the
// stats snapshots the subsystems already maintain — /metrics reads them at
// scrape time, so there is no double-counting plumbing and the simulation
// hot path stays untouched.
type serverMetrics struct {
	reg *obs.Registry

	httpRequests    *obs.CounterVec   // by route, method, code
	httpDuration    *obs.HistogramVec // by route
	queueWait       *obs.Histogram
	runDuration     *obs.Histogram
	storeWrite      *obs.Histogram
	forward         *obs.HistogramVec // by peer
	failoverReasons *obs.CounterVec   // by reason
	replLag         *obs.Histogram    // store write -> replica ack
}

// Failover reason labels for simd_cluster_failovers_total{reason}.
const (
	failoverUnreachable = "owner_unreachable"
	failoverBadAnswer   = "bad_answer"
)

// newServerMetrics builds the registry for one Server.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg}

	reg.GaugeFunc("simd_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("simd_workers", "Size of the simulation worker pool.",
		func() float64 { return float64(s.queue.Stats().Workers) })

	// Queue lifecycle. Each CounterFunc samples one field of the queue's
	// stats snapshot; the snapshot is cheap (a mutex and a struct copy).
	reg.GaugeFunc("simd_jobs_queued", "Jobs waiting for a worker.",
		func() float64 { return float64(s.queue.Stats().Queued) })
	reg.GaugeFunc("simd_jobs_running", "Jobs currently executing.",
		func() float64 { return float64(s.queue.Stats().Running) })
	reg.GaugeFunc("simd_jobs_tracked", "Jobs retained in memory (any state).",
		func() float64 { return float64(s.queue.Stats().Tracked) })
	reg.CounterFunc("simd_jobs_completed_total", "Jobs finished successfully.",
		func() float64 { return float64(s.queue.Stats().Completed) })
	reg.CounterFunc("simd_jobs_failed_total", "Jobs finished with an error.",
		func() float64 { return float64(s.queue.Stats().Failed) })
	reg.CounterFunc("simd_jobs_dedup_hits_total", "Submissions attached to an already-in-flight job.",
		func() float64 { return float64(s.queue.Stats().DedupHits) })
	reg.CounterFunc("simd_jobs_evicted_total", "Finished jobs dropped by the retention cap.",
		func() float64 { return float64(s.queue.Stats().Evicted) })
	reg.CounterFunc("simd_runs_executed_total", "Simulations actually executed (store misses).",
		func() float64 { return float64(s.queue.Stats().Executed) })

	// Result store.
	reg.GaugeFunc("simd_store_entries", "Result records in the store.",
		func() float64 { return float64(s.store.StoreStats().Entries) })
	reg.GaugeFunc("simd_store_blobs", "Checkpoint blobs in the store.",
		func() float64 { return float64(s.store.StoreStats().Blobs) })
	reg.GaugeFunc("simd_store_bytes", "Total bytes stored (results plus blobs).",
		func() float64 { return float64(s.store.StoreStats().TotalBytes) })
	reg.CounterFunc("simd_store_hits_total", "Result lookups answered from the store.",
		func() float64 { return float64(s.store.StoreStats().Hits) })
	reg.CounterFunc("simd_store_misses_total", "Result lookups that missed.",
		func() float64 { return float64(s.store.StoreStats().Misses) })
	reg.CounterFunc("simd_store_puts_total", "Result records written.",
		func() float64 { return float64(s.store.StoreStats().Puts) })
	reg.CounterFunc("simd_store_blob_hits_total", "Checkpoint blob lookups answered from the store.",
		func() float64 { return float64(s.store.StoreStats().BlobHits) })
	reg.CounterFunc("simd_store_blob_misses_total", "Checkpoint blob lookups that missed.",
		func() float64 { return float64(s.store.StoreStats().BlobMisses) })
	reg.CounterFunc("simd_store_blob_puts_total", "Checkpoint blobs written.",
		func() float64 { return float64(s.store.StoreStats().BlobPuts) })
	reg.CounterFunc("simd_store_evictions_total", "Entries evicted by the LRU bounds.",
		func() float64 { return float64(s.store.StoreStats().Evictions) })
	reg.CounterFunc("simd_store_corrupt_total", "Corrupt records dropped on read.",
		func() float64 { return float64(s.store.StoreStats().Corrupt) })

	// Cluster routing and membership. Registered unconditionally so the
	// exported schema does not depend on deployment shape; single-node
	// daemons report 0.
	reg.GaugeFunc("simd_membership_size", "ACTIVE cluster members in the local gossip view (0 = single-node).",
		func() float64 {
			if s.node == nil {
				return 0
			}
			return float64(s.node.Len())
		})
	reg.GaugeFunc("simd_membership_epoch", "Local membership epoch; bumps when the active member set changes (0 = single-node).",
		func() float64 {
			if s.node == nil {
				return 0
			}
			return float64(s.node.Epoch())
		})
	reg.CounterFunc("simd_cluster_forwarded_total", "Runs forwarded to a rendezvous-ranked member.",
		func() float64 { return float64(atomic.LoadUint64(&s.forwarded)) })
	m.failoverReasons = reg.CounterVec("simd_cluster_failovers_total",
		"Forwards that fell back down the ranking, by cause.", "reason")
	for _, reason := range []string{failoverUnreachable, failoverBadAnswer} {
		m.failoverReasons.With(reason) // pre-seed so every series renders from 0
	}
	m.forward = reg.HistogramVec("simd_cluster_forward_seconds",
		"Round-trip time of forwarding runs to a peer (submit only; simulation time is spent polling the returned job handle).",
		nil, "peer")
	reg.CounterFunc("simd_cluster_replica_hits_total", "Reads served from a non-owner's warm replica.",
		func() float64 { return float64(atomic.LoadUint64(&s.replicaHits)) })
	reg.CounterFunc("simd_replication_pushed_total", "Records and checkpoint blobs pushed to replicas.",
		func() float64 { return float64(atomic.LoadUint64(&s.replPushed)) })
	reg.CounterFunc("simd_replication_received_total", "Records and checkpoint blobs accepted from peers.",
		func() float64 { return float64(atomic.LoadUint64(&s.replRecv)) })
	reg.CounterFunc("simd_replication_errors_total", "Failed replica pushes plus rejected receipts.",
		func() float64 { return float64(atomic.LoadUint64(&s.replErrors)) })
	reg.CounterFunc("simd_replication_read_repairs_total", "Records re-pushed onto the current top-K after an off-owner read.",
		func() float64 { return float64(atomic.LoadUint64(&s.readRepairs)) })
	m.replLag = reg.Histogram("simd_replication_lag_seconds",
		"Lag between a local store write and each replica's acknowledgement.", nil)

	if s.ckpt != nil {
		reg.CounterFunc("simd_checkpoint_hits_total", "Runs resumed from a stored state prefix.",
			func() float64 { return float64(s.ckpt.ManagerStats().Hits) })
		reg.CounterFunc("simd_checkpoint_saves_total", "GPU state snapshots banked.",
			func() float64 { return float64(s.ckpt.ManagerStats().Saves) })
		reg.CounterFunc("simd_checkpoint_bytes_total", "Checkpoint blob bytes written.",
			func() float64 { return float64(s.ckpt.ManagerStats().Bytes) })
		reg.CounterFunc("simd_checkpoint_errors_total", "Checkpoint failures swallowed (degraded to cold execution).",
			func() float64 { return float64(s.ckpt.ManagerStats().Errors) })
		s.ckpt.Instrument(reg)
	}

	// GPU engine telemetry: a process-wide atomic sampled here at scrape time
	// (see internal/gpu/telemetry.go). rate() over it is the simulator's
	// cycles/sec throughput.
	reg.CounterFunc("simd_gpu_cycles_total", "Simulated cycles advanced.",
		func() float64 { return float64(gpu.ReadTelemetry().SerialCycles) })

	// Request-path instruments, written by the middleware and the queue.
	m.httpRequests = reg.CounterVec("simd_http_requests_total",
		"HTTP requests served, by route pattern, method and status code.", "route", "method", "code")
	m.httpDuration = reg.HistogramVec("simd_http_request_duration_seconds",
		"HTTP request latency by route pattern.", nil, "route")
	m.queueWait = reg.Histogram("simd_job_queue_wait_seconds",
		"Time run jobs spent queued before a worker picked them up.", nil)
	m.runDuration = reg.Histogram("simd_run_duration_seconds",
		"Wall-clock execution time of run jobs (checkpoint-resumed runs included).", nil)
	m.storeWrite = reg.Histogram("simd_store_write_seconds",
		"Time to persist a run result into the store.", nil)
	return m
}

// newRequestID mints a short random ID for access-log correlation.
func newRequestID() string {
	b := make([]byte, 8)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// statusRecorder captures the response code for metrics and access logs.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// withTelemetry wraps the mux with per-request observability: request
// count and latency by route pattern (the registered ServeMux pattern, so
// label cardinality is bounded by the route table, not by URLs), a request
// ID echoed in X-Request-Id, and one structured access-log line per
// request when a logger is configured.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = newRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)

		// ServeMux stores the matched pattern on the request in place, so
		// it is readable here after the handler ran.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		elapsed := time.Since(start)
		s.metrics.httpRequests.With(route, r.Method, strconv.Itoa(code)).Inc()
		s.metrics.httpDuration.With(route).Observe(elapsed.Seconds())
		if s.logger != nil {
			s.logger.Info("request",
				slog.String("id", reqID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", code),
				slog.Duration("duration", elapsed),
				slog.String("remote", r.RemoteAddr),
				slog.Bool("forwarded", r.Header.Get("X-Simd-Forwarded") != ""),
			)
		}
	})
}
