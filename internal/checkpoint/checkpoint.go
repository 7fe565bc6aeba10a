// Package checkpoint snapshots complete GPU simulation state so sweeps can
// resume from shared prefixes instead of re-simulating them.
//
// The simulator is deterministic and single-threaded, which makes a snapshot
// meaningful: a GPU restored from a checkpoint produces the byte-identical
// remainder of the run (the round-trip tests in internal/gpu and here prove
// it). Sweeps exploit that through two prefix classes:
//
//   - the warmup prefix — every run that shares workload, configuration,
//     seed (or trace content) and warmup length executes identical cycles up
//     to warmup end, regardless of its measurement window; a Figure-11-style
//     sweep whose points differ only in measure-window knobs re-simulates the
//     warmup once instead of per point;
//   - kernel-boundary prefixes — re-running the same spec (after a crash, a
//     store eviction of the result record, or with checkpointing newly
//     enabled) resumes from the furthest banked boundary.
//
// Snapshots are stored content-addressed in an internal/simstore Store, next
// to result records and under the same LRU; keys are prefix fingerprints
// derived from the simstore spec fingerprint (see keys.go). The Manager type
// glues it together behind sweep.Checkpointer.
package checkpoint

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/simstore"
	"repro/internal/workload"
)

// FormatVersion versions the snapshot container (magic line, header, payload
// encoding). Snapshots with a different version are rejected on decode.
// Version 2: workload.GeneratorState carries the RNG register instead of a
// draw count to replay.
const FormatVersion = 2

// magicPrefix plus the format version is the first line of every checkpoint
// file, so a reader knows immediately whether it can parse the rest.
const magicPrefix = "repro-checkpoint/"

// Header is the self-describing, uncompressed preamble of a snapshot: one
// JSON line a tool can read without decoding the (gzip+gob) state payload.
type Header struct {
	Version    int    `json:"version"`
	SimVersion string `json:"sim_version"`
	// Key names the run the snapshot was taken from (informational, like
	// simstore.Record.Key).
	Key string `json:"key,omitempty"`
	// Cycle is the simulated cycle the snapshot was taken at; AtKernel the
	// kernel boundary (0 = warmup end).
	Cycle       uint64 `json:"cycle"`
	AtKernel    int    `json:"at_kernel"`
	SavedAtUnix int64  `json:"saved_at_unix"`
}

// Snapshot is a decoded checkpoint: the descriptor plus the complete GPU
// state.
type Snapshot struct {
	Header Header
	State  gpu.State
}

// Save captures the complete state of g as a snapshot. It fails if the
// workload program driving g does not support checkpointing (every program in
// this repository does).
func Save(g *gpu.GPU) (*Snapshot, error) {
	st, err := g.SaveState()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Snapshot{
		Header: Header{
			Version:     FormatVersion,
			SimVersion:  simstore.SimVersion,
			Cycle:       st.Cycle,
			SavedAtUnix: time.Now().Unix(),
		},
		State: st,
	}, nil
}

// Restore builds a GPU from cfg and prog — which must be freshly constructed
// from the same inputs as the checkpointed run — and restores the snapshot
// onto it. The returned GPU continues the run exactly where the snapshot left
// it; resumed statistics are byte-identical to the uninterrupted run's.
func Restore(cfg config.Config, prog workload.Program, snap *Snapshot) (*gpu.GPU, error) {
	if snap.Header.Version != FormatVersion {
		return nil, fmt.Errorf("checkpoint: snapshot format v%d, this simulator reads v%d", snap.Header.Version, FormatVersion)
	}
	g, err := gpu.Restore(cfg, prog, snap.State)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return g, nil
}

// Encode serializes a snapshot: the magic line, the JSON header line, then
// the gob-encoded GPU state compressed with gzip. The two text lines make a
// checkpoint file self-describing (`checkpointtool info` reads them alone);
// gob handles the deeply nested state struct without per-field code; gzip
// wins back most of gob's verbosity on the large cache arrays.
func Encode(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s%d\n", magicPrefix, FormatVersion)
	hdr, err := json.Marshal(snap.Header)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode header: %w", err)
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(snap.State); err != nil {
		return nil, fmt.Errorf("checkpoint: encode state: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("checkpoint: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// ReadHeader parses the self-describing preamble of a checkpoint stream
// without touching the state payload.
func ReadHeader(r io.Reader) (Header, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return Header{}, fmt.Errorf("checkpoint: read magic: %w", err)
	}
	version, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), magicPrefix)
	if !ok {
		return Header{}, fmt.Errorf("checkpoint: bad magic %q (not a checkpoint file?)", strings.TrimSpace(line))
	}
	if version != strconv.Itoa(FormatVersion) {
		return Header{}, fmt.Errorf("checkpoint: snapshot format v%s, this simulator reads v%d", version, FormatVersion)
	}
	hdrLine, err := br.ReadString('\n')
	if err != nil {
		return Header{}, fmt.Errorf("checkpoint: read header: %w", err)
	}
	var hdr Header
	if err := json.Unmarshal([]byte(hdrLine), &hdr); err != nil {
		return Header{}, fmt.Errorf("checkpoint: parse header: %w", err)
	}
	if hdr.Version != FormatVersion {
		return Header{}, fmt.Errorf("checkpoint: snapshot format v%d, this simulator reads v%d", hdr.Version, FormatVersion)
	}
	return hdr, nil
}

// Decode parses an encoded snapshot. Any malformation — bad magic, version
// skew, truncated or corrupted payload — is an error; callers holding the
// blob in a store drop it and fall back to cold execution.
func Decode(data []byte) (*Snapshot, error) {
	r := bytes.NewReader(data)
	hdr, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	// ReadHeader consumed through its bufio wrapper; re-locate the payload by
	// scanning past the two text lines directly.
	payload := data
	for i := 0; i < 2; i++ {
		nl := bytes.IndexByte(payload, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("checkpoint: truncated preamble")
		}
		payload = payload[nl+1:]
	}
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode state: %w", err)
	}
	snap := &Snapshot{Header: hdr}
	if err := gob.NewDecoder(zr).Decode(&snap.State); err != nil {
		return nil, fmt.Errorf("checkpoint: decode state: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("checkpoint: decode state: %w", err)
	}
	return snap, nil
}
