// Package checkpoint snapshots complete GPU simulation state so sweeps can
// resume from shared prefixes instead of re-simulating them.
//
// The simulator is deterministic and single-threaded, which makes a snapshot
// meaningful: a GPU restored from a checkpoint produces the byte-identical
// remainder of the run (the round-trip tests in internal/gpu and here prove
// it). Sweeps exploit that through two prefix classes:
//
//   - the warmup prefix — every run that shares workload, configuration,
//     seed and warmup length executes identical cycles up to warmup end,
//     regardless of its measurement window; a Figure-11-style sweep whose
//     points differ only in measure-window knobs re-simulates the warmup
//     once instead of per point;
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
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/simstore"
	"repro/internal/wire"
	"repro/internal/workload"
)

// FormatVersion versions the snapshot file: the frame below and the wire
// form of gpu.State inside it. Any change to either — a field added to a
// State type's AppendTo, a different column order — bumps it; snapshots with
// another version are rejected on decode (the store drops them and the run
// falls back to a shorter prefix or cold execution), and no reader for old
// versions is kept.
// Version 3: the hand-written binary state codec under a CRC-32C, replacing
// gob + gzip. Version 4: the tag stores' access counters and the MSHR
// tables' occupancy counters, which nothing read, leave the state. Version
// 5: the GPU follows the controller's mode, so the parked decision and the
// transition's target and reason leave the state. Version 6: an L1 MSHR
// entry's merge list holds the slots of the warps asleep on its line instead
// of request counters, so the SMs' blocked-line and issue-count columns and
// the DRAM banks' last-activate cycles, which nothing read, leave the state.
// Version 7: a tag store keeps one recency word per set instead of an LRU
// stamp per line, so its snapshot carries each valid line's position in its
// set's recency order where it carried the stamp and the store's clock; the
// lines' last clusters and the generator's per-warp sweep positions, which
// nothing read, leave the state.
const FormatVersion = 7

// A checkpoint file is
//
//	repro-checkpoint/7\n            magic line with the format version
//	{"version":7,...}\n             Header as one JSON line
//	<8 bytes>                       payload length, little-endian
//	<4 bytes>                       CRC-32C, little-endian
//	<payload>                       gpu.State.AppendTo
//
// The two text lines make a file self-describing (`checkpointtool info`
// reads them alone). The checksum covers everything between the magic line
// and the end of the file except itself — header line, length and payload —
// and is verified, with the length, before a payload byte is interpreted.
const (
	magicPrefix = "repro-checkpoint/"
	frameBytes  = 8 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the self-describing preamble of a snapshot: one JSON line a tool
// can read without decoding the state payload.
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
	snap := new(Snapshot)
	if err := saveInto(g, snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// saveInto is Save reusing the backing arrays snap.State already has.
func saveInto(g *gpu.GPU, snap *Snapshot) error {
	if err := g.SaveStateInto(&snap.State); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	snap.Header = Header{
		Version:     FormatVersion,
		SimVersion:  simstore.SimVersion,
		Cycle:       snap.State.Cycle,
		SavedAtUnix: time.Now().Unix(),
	}
	return nil
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

// Encode serializes a snapshot into a checkpoint file. The bytes are a pure
// function of the header and the state.
func Encode(snap *Snapshot) ([]byte, error) {
	return appendSnapshot(nil, snap)
}

// appendSnapshot is Encode appending to b.
func appendSnapshot(b []byte, snap *Snapshot) ([]byte, error) {
	hdr, err := json.Marshal(snap.Header)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode header: %w", err)
	}
	b = append(b, magicPrefix...)
	b = strconv.AppendInt(b, FormatVersion, 10)
	b = append(b, '\n')
	covered := len(b)
	b = append(b, hdr...)
	b = append(b, '\n')
	frame := len(b)
	b = append(b, make([]byte, frameBytes)...)
	b = snap.State.AppendTo(b)
	binary.LittleEndian.PutUint64(b[frame:], uint64(len(b)-frame-frameBytes))
	sum := crc32.Update(0, castagnoli, b[covered:frame+8])
	sum = crc32.Update(sum, castagnoli, b[frame+frameBytes:])
	binary.LittleEndian.PutUint32(b[frame+8:], sum)
	return b, nil
}

// ReadHeader parses the self-describing preamble of a checkpoint stream
// without touching the state payload (and so without verifying the
// checksum, which needs all of it).
func ReadHeader(r io.Reader) (Header, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return Header{}, fmt.Errorf("checkpoint: read magic: %w", err)
	}
	if err := checkMagic(line); err != nil {
		return Header{}, err
	}
	hdrLine, err := br.ReadString('\n')
	if err != nil {
		return Header{}, fmt.Errorf("checkpoint: read header: %w", err)
	}
	return parseHeader([]byte(hdrLine))
}

// checkMagic validates the first line of a checkpoint file (with its
// newline): the magic prefix and this simulator's format version.
func checkMagic(line string) error {
	version, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), magicPrefix)
	if !ok {
		return fmt.Errorf("checkpoint: bad magic %q (not a checkpoint file?)", strings.TrimSpace(line))
	}
	if version != strconv.Itoa(FormatVersion) {
		return fmt.Errorf("checkpoint: snapshot format v%s, this simulator reads v%d", version, FormatVersion)
	}
	return nil
}

func parseHeader(line []byte) (Header, error) {
	var hdr Header
	if err := json.Unmarshal(line, &hdr); err != nil {
		return Header{}, fmt.Errorf("checkpoint: parse header: %w", err)
	}
	if hdr.Version != FormatVersion {
		return Header{}, fmt.Errorf("checkpoint: snapshot format v%d, this simulator reads v%d", hdr.Version, FormatVersion)
	}
	return hdr, nil
}

// Decode parses a checkpoint file. Any malformation — bad magic, version
// skew, a length or checksum that does not match, a payload that does not
// parse — is an error; callers holding the blob in a store drop it and fall
// back to cold execution.
func Decode(data []byte) (*Snapshot, error) {
	snap := new(Snapshot)
	if err := decodeInto(data, snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// decodeInto is Decode reusing the backing arrays snap.State already has.
// On error snap holds nothing usable.
func decodeInto(data []byte, snap *Snapshot) error {
	hdr, payload, err := openFrame(data)
	if err != nil {
		return err
	}
	r := wire.NewReader(payload)
	snap.State.ReadFrom(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("checkpoint: decode state: %w", err)
	}
	snap.Header = hdr
	return nil
}

// openFrame validates everything around the payload — magic, header, length
// and checksum — and returns the header and the verified payload bytes.
func openFrame(data []byte) (Header, []byte, error) {
	magicEnd := bytes.IndexByte(data, '\n') + 1
	if magicEnd == 0 {
		return Header{}, nil, fmt.Errorf("checkpoint: read magic: no newline in %d bytes", len(data))
	}
	if err := checkMagic(string(data[:magicEnd])); err != nil {
		return Header{}, nil, err
	}
	hdrEnd := bytes.IndexByte(data[magicEnd:], '\n') + 1
	if hdrEnd == 0 {
		return Header{}, nil, fmt.Errorf("checkpoint: read header: truncated preamble")
	}
	hdrEnd += magicEnd
	hdr, err := parseHeader(data[magicEnd:hdrEnd])
	if err != nil {
		return Header{}, nil, err
	}
	if len(data)-hdrEnd < frameBytes {
		return Header{}, nil, fmt.Errorf("checkpoint: truncated frame")
	}
	payload := data[hdrEnd+frameBytes:]
	if n := binary.LittleEndian.Uint64(data[hdrEnd:]); n != uint64(len(payload)) {
		return Header{}, nil, fmt.Errorf("checkpoint: payload is %d bytes, frame says %d (truncated?)", len(payload), n)
	}
	sum := crc32.Update(0, castagnoli, data[magicEnd:hdrEnd+8])
	sum = crc32.Update(sum, castagnoli, payload)
	if want := binary.LittleEndian.Uint32(data[hdrEnd+8:]); sum != want {
		return Header{}, nil, fmt.Errorf("checkpoint: checksum mismatch (computed %08x, stored %08x): corrupt snapshot", sum, want)
	}
	return hdr, payload, nil
}
