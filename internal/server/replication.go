package server

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server/api"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// Replication, the write side: with Config.Replicas = K > 1, every result
// record and checkpoint blob written to a member's store is pushed
// asynchronously to the top-K rendezvous-ranked members for its fingerprint
// (the owner is rank 0 and counts as one copy). The read side — probe,
// replica hits, and when a read repair fires — is routing.go.

// parseHexFP decodes the wire form of a store fingerprint.
func parseHexFP(s string) ([32]byte, error) {
	var fp [32]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return fp, err
	}
	if len(b) != len(fp) {
		return fp, fmt.Errorf("fingerprint must be %d bytes, got %d", len(fp), len(b))
	}
	copy(fp[:], b)
	return fp, nil
}

// readRepair pushes a record a read found off-owner (on source) back onto
// targets — the top-K of the ranking that read used — storing it locally if
// this daemon is one of them, so churn-displaced records migrate on the read
// path, their statistics as the bytes the probe brought back. spec is the
// reader's canonical spec: it hashes to fp by construction.
func (s *Server) readRepair(fp [32]byte, spec sweep.RunSpec, rec api.RawRecord, source string, targets []string) {
	rec.Spec = api.FromRunSpec(spec)
	repaired := false
	for _, t := range targets {
		switch t {
		case s.node.Self():
			if !s.store.Has(fp) {
				s.store.PutEncoded(fp, rec.Key, spec, simstore.EncodedStats{JSON: rec.Stats, CRC: rec.StatsCRC})
				repaired = true
			}
		case source:
			// The member we read it from has it by definition.
		default:
			repaired = true
			s.pushReplicas([]string{t}, api.ReplicateRequest{Records: []api.RawRecord{rec}}, time.Now())
		}
	}
	if repaired {
		atomic.AddUint64(&s.readRepairs, 1)
	}
}

// replicateRecord is the Queue.OnStored hook: push a freshly stored result
// to the top-K ranked members, as the bytes the store holds, asynchronously
// (the worker that computed it must not block on the network).
func (s *Server) replicateRecord(fp [32]byte, key string, spec sweep.RunSpec, stats simstore.EncodedStats) {
	targets := s.replicaTargets(fp)
	if len(targets) == 0 {
		return
	}
	// The worker's spec carries job-local fields (Key = job ID,
	// Checkpoint); re-canonicalize so the receiver verifies the same
	// fingerprint the record is filed under.
	req := api.ReplicateRequest{Records: []api.RawRecord{{
		Fingerprint: simstore.Hex(fp),
		Key:         key,
		Spec:        api.FromRunSpec(spec.Canonical()),
		StatsCRC:    stats.CRC,
		Stats:       stats.JSON,
	}}}
	storedAt := time.Now()
	go s.pushReplicas(targets, req, storedAt)
}

// replicateBlob is the checkpoint.Manager.OnSave hook: replicate a banked
// GPU snapshot under its content key, so a replica can also resume runs
// the dead owner had checkpointed.
func (s *Server) replicateBlob(key [32]byte, data []byte) {
	targets := s.replicaTargets(key)
	if len(targets) == 0 {
		return
	}
	req := api.ReplicateRequest{Blobs: []api.ReplicaBlob{{Key: simstore.Hex(key), Data: data}}}
	storedAt := time.Now()
	go s.pushReplicas(targets, req, storedAt)
}

// replicaTargets returns the top-K ranked members for a hash, minus self.
func (s *Server) replicaTargets(fp [32]byte) []string {
	if s.node == nil || s.replicas <= 1 {
		return nil
	}
	var out []string
	for _, t := range s.topK(s.node.Ranked(fp)) {
		if t != s.node.Self() {
			out = append(out, t)
		}
	}
	return out
}

// pushReplicas delivers one ReplicateRequest to each target, counting
// pushes, errors, and the write→replicated lag.
func (s *Server) pushReplicas(targets []string, req api.ReplicateRequest, storedAt time.Time) {
	items := uint64(len(req.Records) + len(req.Blobs))
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			resp, err := s.peerClient(t).Replicate(ctx, req)
			if err != nil {
				atomic.AddUint64(&s.replErrors, items)
				return
			}
			atomic.AddUint64(&s.replPushed, uint64(resp.Stored))
			atomic.AddUint64(&s.replErrors, uint64(resp.Rejected))
			if s.metrics != nil && s.metrics.replLag != nil {
				s.metrics.replLag.Observe(time.Since(storedAt).Seconds())
			}
		}(t)
	}
	wg.Wait()
}

// maxReplicateBytes bounds POST /v1/replicate bodies: checkpoint blobs
// run to megabytes, well past the ordinary request limit.
const maxReplicateBytes = 64 << 20

// handleReplicate implements POST /v1/replicate: bank pushed records and
// checkpoint blobs in the local store, verifying each record's fingerprint
// against its spec where computable (trace-replay specs are not; their
// records are rejected rather than stored unverified) and its statistics
// against their checksum (Store.PutEncoded). The statistics are stored as
// the bytes that came, never decoded.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.node == nil {
		writeError(w, http.StatusServiceUnavailable, "not clustered")
		return
	}
	var req api.ReplicateRequest
	if _, ok := readJSON(w, r, maxReplicateBytes, &req); !ok {
		return
	}
	var resp api.ReplicateResponse
	for _, rec := range req.Records {
		fp, err := parseHexFP(rec.Fingerprint)
		if err != nil {
			resp.Rejected++
			continue
		}
		spec, err := rec.Spec.ToRunSpec()
		if err != nil {
			resp.Rejected++
			continue
		}
		computed, err := simstore.Fingerprint(spec)
		if err != nil || computed != fp {
			resp.Rejected++
			continue
		}
		if err := s.store.PutEncoded(fp, rec.Key, spec, simstore.EncodedStats{JSON: rec.Stats, CRC: rec.StatsCRC}); err != nil {
			resp.Rejected++
			continue
		}
		resp.Stored++
	}
	for _, blob := range req.Blobs {
		key, err := parseHexFP(blob.Key)
		if err != nil || len(blob.Data) == 0 {
			resp.Rejected++
			continue
		}
		if err := s.store.PutBlob(key, blob.Data); err != nil {
			resp.Rejected++
			continue
		}
		resp.Stored++
	}
	atomic.AddUint64(&s.replRecv, uint64(resp.Stored))
	atomic.AddUint64(&s.replErrors, uint64(resp.Rejected))
	writeJSON(w, http.StatusOK, resp)
}

// maxLookupBytes bounds POST /v1/records/lookup bodies: a batch of
// fingerprints.
const maxLookupBytes = 1 << 20

// handleRecordLookup implements POST /v1/records/lookup: report which of
// the requested fingerprints this daemon's local store holds, with their
// records, the statistics spliced in as stored. No execution, no forwarding
// — a pure store probe.
func (s *Server) handleRecordLookup(w http.ResponseWriter, r *http.Request) {
	var req api.LookupRequest
	if _, ok := readJSON(w, r, maxLookupBytes, &req); !ok {
		return
	}
	var recs []api.RawRecord
	for _, hexFP := range req.Fingerprints {
		fp, err := parseHexFP(hexFP)
		if err != nil {
			continue
		}
		hit, ok := s.store.Get(fp)
		if !ok {
			continue
		}
		recs = append(recs, api.RawRecord{
			Fingerprint: hexFP,
			Key:         hit.Key,
			StatsCRC:    hit.Stats.CRC,
			Stats:       hit.Stats.JSON,
		})
	}
	writeLookup(w, recs)
}
