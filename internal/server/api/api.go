// Package api defines the JSON wire types of the simd HTTP API. It is
// shared by the server (internal/server) and the Go client
// (internal/server/client), so the two can never disagree about the
// protocol; third-party clients can treat the struct tags here as the API
// reference.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Spec is the wire form of one simulation run. It is a convenience layer
// over sweep.RunSpec: benchmarks can be named by their Table 2 catalog
// abbreviation and the GPU configuration defaults to the paper's baseline,
// so the minimal useful request is {"benchmarks":["VA"],"measure_cycles":20000}.
// Two Specs that resolve to the same canonical RunSpec are the same run —
// the server fingerprints the resolved spec, not the wire form.
type Spec struct {
	// Key optionally names the run in responses; it does not affect results
	// or caching.
	Key string `json:"key,omitempty"`
	// Benchmarks are workload catalog abbreviations (e.g. "VA", "GEMM");
	// several entries co-execute as a multi-program workload. They combine
	// with Workloads, which spells out full synthetic specs instead.
	Benchmarks []string        `json:"benchmarks,omitempty"`
	Workloads  []workload.Spec `json:"workloads,omitempty"`
	// Mode is the LLC organization: "shared" (default), "private" or
	// "adaptive". It is applied to the baseline configuration, or to Config
	// if one is given (only when Mode is non-empty).
	Mode string `json:"mode,omitempty"`
	// Config optionally replaces the paper's Table 1 baseline entirely.
	Config *config.Config `json:"config,omitempty"`
	// AppModes assigns each co-running application its own LLC view
	// (multi-program adaptive mode), named like Mode.
	AppModes []string `json:"app_modes,omitempty"`

	Seed          int64  `json:"seed,omitempty"`
	MeasureCycles uint64 `json:"measure_cycles"`
	WarmupCycles  uint64 `json:"warmup_cycles,omitempty"`
	Kernels       int    `json:"kernels,omitempty"`
}

// ToRunSpec resolves the wire spec into the engine's RunSpec. Errors are
// client errors (unknown benchmark, bad mode, invalid configuration or
// workload).
func (s Spec) ToRunSpec() (sweep.RunSpec, error) {
	rs := sweep.RunSpec{
		Key:           s.Key,
		Seed:          s.Seed,
		MeasureCycles: s.MeasureCycles,
		WarmupCycles:  s.WarmupCycles,
		Kernels:       s.Kernels,
	}
	for _, abbr := range s.Benchmarks {
		w, ok := workload.ByAbbr(abbr)
		if !ok {
			return rs, fmt.Errorf("unknown benchmark %q (see the Table 2 catalog)", abbr)
		}
		rs.Workloads = append(rs.Workloads, w)
	}
	rs.Workloads = append(rs.Workloads, s.Workloads...)

	cfg := config.Baseline()
	if s.Config != nil {
		cfg = *s.Config
	}
	if s.Mode != "" {
		mode, err := config.ParseLLCMode(s.Mode)
		if err != nil {
			return rs, err
		}
		cfg.LLCMode = mode
	}
	rs.Config = cfg

	for _, name := range s.AppModes {
		mode, err := config.ParseLLCMode(name)
		if err != nil {
			return rs, fmt.Errorf("app_modes: %w", err)
		}
		rs.AppModes = append(rs.AppModes, mode)
	}

	switch {
	case s.MeasureCycles == 0:
		return rs, fmt.Errorf("measure_cycles must be positive")
	case len(rs.Workloads) == 0:
		return rs, fmt.Errorf("a run needs benchmarks or workloads")
	}
	if err := rs.Config.Validate(); err != nil {
		return rs, fmt.Errorf("invalid configuration: %w", err)
	}
	for i, w := range s.Workloads {
		if err := w.Validate(); err != nil {
			return rs, fmt.Errorf("workloads[%d]: %w", i, err)
		}
	}
	return rs, nil
}

// FromRunSpec is the inverse of ToRunSpec: it spells an engine RunSpec out
// as a fully-explicit wire Spec (Config inline, no benchmark abbreviations),
// such that FromRunSpec(rs).ToRunSpec() fingerprints identically to rs. A
// client.Pool sends a figure's declared runs in this form.
func FromRunSpec(rs sweep.RunSpec) Spec {
	cfg := rs.Config
	s := Spec{
		Key:           rs.Key,
		Workloads:     rs.Workloads,
		Config:        &cfg,
		Seed:          rs.Seed,
		MeasureCycles: rs.MeasureCycles,
		WarmupCycles:  rs.WarmupCycles,
		Kernels:       rs.Kernels,
	}
	for _, m := range rs.AppModes {
		s.AppModes = append(s.AppModes, m.String())
	}
	return s
}

// RunRequest is the body of POST /v1/runs: a batch of runs. A bare Spec
// object (no "specs" wrapper) is also accepted for single-run requests.
type RunRequest struct {
	Specs []Spec `json:"specs"`
}

// ForwardedHeader marks a POST /v1/runs that was forwarded by another
// cluster member. A daemon receiving it executes the runs itself instead of
// routing them again, which bounds every submission to at most one hop even
// when members briefly disagree about the peer list.
const ForwardedHeader = "X-Simd-Forwarded"

// Job states reported by the API.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// IsTerminal reports whether a job status is final. It is the one shared
// predicate — the server's queue, the client pool and pollers must agree,
// or a late-added status would leave one of them waiting forever.
func IsTerminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCancelled
}

// RunResult is the per-spec outcome in a RunResponse. A store hit carries
// Status "done", Cached true and the statistics inline; a miss carries the
// job ID executing it, to poll on GET /v1/runs/{id}.
type RunResult struct {
	Key         string        `json:"key,omitempty"`
	Fingerprint string        `json:"fingerprint"`
	Cached      bool          `json:"cached"`
	Status      string        `json:"status"`
	JobID       string        `json:"job_id,omitempty"`
	Stats       *gpu.RunStats `json:"stats,omitempty"`
	Error       string        `json:"error,omitempty"`
	// Peer is the cluster member that answered this spec (the rendezvous
	// owner, or the member that failed over for it). JobID, when present,
	// names a job on that member. Empty on single-node daemons.
	Peer string `json:"peer,omitempty"`
}

// RunResponse is the body answering POST /v1/runs.
type RunResponse struct {
	Results []RunResult `json:"results"`
}

// JobStatus is the body of GET /v1/runs/{id}: a run job's state, and its
// statistics once done.
type JobStatus struct {
	ID          string        `json:"id"`
	Status      string        `json:"status"`
	Key         string        `json:"key,omitempty"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Stats       *gpu.RunStats `json:"stats,omitempty"`
	Error       string        `json:"error,omitempty"`
	// DurationMs is the execution wall-clock of a finished job.
	DurationMs int64 `json:"duration_ms,omitempty"`
	// Peer is the cluster member the job lives on (set when answering
	// through a cluster daemon; empty single-node). Poll or cancel there —
	// the job ID names its owner, so any other member answers a 307 to it.
	Peer string `json:"peer,omitempty"`
}

// JobTimeline is the body of GET /v1/jobs/{id}/timeline: the job's
// run-lifecycle span tree (queue wait, checkpoint probe/restore, warmup,
// per-kernel measure segments, store write). Spans still open — the job is
// running — carry "open": true with their duration up to the snapshot.
type JobTimeline struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Key    string          `json:"key,omitempty"`
	Peer   string          `json:"peer,omitempty"`
	Spans  []*obs.SpanJSON `json:"spans"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	StoreDir      string  `json:"store_dir"`
	StoreEntries  int     `json:"store_entries"`
	Workers       int     `json:"workers"`
	// Queued and Running snapshot the job queue; JobsTracked counts the
	// jobs (any state) currently retained in memory — bounded by the
	// daemon's retention policy, see DESIGN.md "Job retention".
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	JobsTracked int `json:"jobs_tracked"`
	// Self is the daemon's advertised cluster address (empty single-node).
	Self string `json:"self,omitempty"`
}

// MemberEntry is one member in a MembershipView: its address and the
// answering daemon's gossip verdict on it (alive, suspect, dead, left;
// empty single-node).
type MemberEntry struct {
	Addr   string `json:"addr"`
	Status string `json:"status,omitempty"`
	Self   bool   `json:"self,omitempty"`
}

// MembershipView is the body of GET /v1/cluster/membership: the answering
// daemon's gossip view, no cross-member round-trips — cheap enough for
// clients to poll (each member's own /healthz carries its store and queue
// summary). A single-node daemon reports itself as the only member. Epoch
// bumps exactly when the active member set changes (0 when not clustered).
type MembershipView struct {
	Epoch   uint64        `json:"epoch"`
	Members []MemberEntry `json:"members"`
}

// StoredRecord is one looked-up store entry on the wire, its fingerprint
// hex-encoded: the body of a lookup answer as clients decode it. The asker
// fingerprinted the spec it asked about, so the answer carries none.
type StoredRecord struct {
	Fingerprint string       `json:"fingerprint"`
	Key         string       `json:"key,omitempty"`
	Stats       gpu.RunStats `json:"stats"`
}

// StatsCRCHeader names the response header of POST /v1/runs and POST
// /v1/records/lookup answers that carries the CRC-32C of the statistics in
// the body: lower-case hex, comma-separated, one entry per result (record)
// in body order, empty for one without statistics. The bodies themselves
// are exactly the encodings of RunResponse and LookupResponse. A member that
// passes a peer's statistics on checks them against it first; other clients
// may ignore it.
const StatsCRCHeader = "X-Simd-Stats-Crc32c"

// RawRunResult is a RunResult with its statistics kept as the JSON bytes a
// result store holds, and StatsCRC their checksum (StatsCRCHeader): how a
// hit crosses the cluster without being decoded. Its encoding is
// RunResult's.
type RawRunResult struct {
	Key         string          `json:"key,omitempty"`
	Fingerprint string          `json:"fingerprint"`
	Cached      bool            `json:"cached"`
	Status      string          `json:"status"`
	JobID       string          `json:"job_id,omitempty"`
	Stats       json.RawMessage `json:"stats,omitempty"`
	Error       string          `json:"error,omitempty"`
	Peer        string          `json:"peer,omitempty"`
	StatsCRC    uint32          `json:"-"`
}

// RawRunResponse is a RunResponse with its statistics kept as bytes.
type RawRunResponse struct {
	Results []RawRunResult `json:"results"`
}

// RawRecord is a store record on the wire with its statistics kept as the
// bytes the store holds and StatsCRC their CRC-32C. A replicate push
// carries both in its body, with the canonical Spec, so the receiver can
// verify the fingerprint and the bytes and store them as they are; a lookup
// answer is StoredRecord's encoding, its checksums in StatsCRCHeader.
type RawRecord struct {
	Fingerprint string          `json:"fingerprint"`
	Key         string          `json:"key,omitempty"`
	Spec        Spec            `json:"spec"`
	StatsCRC    uint32          `json:"stats_crc32c"`
	Stats       json.RawMessage `json:"stats"`
}

// RawLookupResponse is a LookupResponse with its statistics kept as bytes.
type RawLookupResponse struct {
	Records []RawRecord `json:"records"`
}

// ReplicaBlob is one checkpoint blob pushed to a replica, keyed by the
// hex of its content hash.
type ReplicaBlob struct {
	Key  string `json:"key"`
	Data []byte `json:"data"`
}

// ReplicateRequest is the body of POST /v1/replicate: records and/or
// checkpoint blobs the sender wants banked on this replica.
type ReplicateRequest struct {
	Records []RawRecord   `json:"records,omitempty"`
	Blobs   []ReplicaBlob `json:"blobs,omitempty"`
}

// ReplicateResponse reports how much of a ReplicateRequest was accepted.
type ReplicateResponse struct {
	Stored   int `json:"stored"`
	Rejected int `json:"rejected"`
}

// LookupRequest is the body of POST /v1/records/lookup: a batch of
// hex fingerprints to probe in the receiver's local store only — no
// execution, no forwarding.
type LookupRequest struct {
	Fingerprints []string `json:"fingerprints"`
}

// LookupResponse returns the subset of requested records the receiver
// holds locally.
type LookupResponse struct {
	Records []StoredRecord `json:"records"`
}

// Error is the body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}

// ReadBody reads r to EOF into buf's storage, r being an HTTP body of
// declared length size (-1 when unknown), and returns what it read. A known
// size of at most limit is read into buf if it has the room, else into one
// buffer allocated at that size, where io.ReadAll would start at 512 bytes
// and double its way up. Only a body of unknown length (a chunked answer)
// or one declared over limit still grows a buffer as it arrives, as
// io.ReadAll does, from buf. A body longer than declared is still read
// whole. Callers that recycle buf own the bytes returned until they pass
// them back.
func ReadBody(buf []byte, r io.Reader, size, limit int64) ([]byte, error) {
	// ReadFrom grows a buffer with less than MinRead bytes free, so that
	// much spare room lets the read that meets EOF land without a regrow.
	if size >= 0 && size <= limit && int64(cap(buf)) < size+bytes.MinRead {
		buf = make([]byte, 0, size+bytes.MinRead)
	}
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}
