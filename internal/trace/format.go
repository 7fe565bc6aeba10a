// Package trace records and replays per-warp memory-instruction streams.
//
// A trace captures the exact sequence of operations a workload.Program hands
// to the GPU — every NextOp result tagged with its (SM, warp slot) and every
// kernel boundary — in a compact, versioned binary format. Because the
// simulator is deterministic, replaying a trace under the configuration it
// was recorded with reproduces the original run cycle for cycle; replaying it
// under a different configuration remaps the recorded warp streams onto the
// new geometry.
//
// The subsystem has three moving parts:
//
//   - Writer/Reader implement the on-disk format: an 8-byte magic (carrying
//     the format version), then one gzip stream holding a JSON header with
//     the recording GPU's geometry and provenance, followed by
//     varint-delta-encoded event records and a terminating end marker. Both
//     ends stream — a trace is never held in memory as a whole.
//   - Recorder wraps any workload.Program and writes each operation to a
//     Writer as it is generated, so gpu.Run records transparently.
//   - Player implements workload.Program by replaying a trace file, with
//     SM/warp remapping when the replay geometry differs from the recorded
//     one and a configurable end-of-trace policy (drain or loop).
//
// cmd/tracetool exposes record / info / replay / diff on the command line,
// and sweep.RunSpec accepts a trace file as a program source, so every layer
// above the GPU model (exp figures, sweeps, examples) can run from traces.
package trace

import (
	"errors"
	"fmt"

	"repro/internal/config"
)

// magic identifies a trace file. The last byte is the format version; readers
// reject versions they do not understand.
var magic = [8]byte{'G', 'P', 'U', 'T', 'R', 'C', 0, formatVersion}

// formatVersion is the current on-disk format version.
const formatVersion = 1

// Event tags. Every record inside the gzip stream starts with one tag byte.
const (
	evEnd    = 0x00 // end of trace; nothing follows
	evKernel = 0x01 // kernel boundary
	evALU    = 0x02 // non-memory op: uvarint warp, uvarint ALU latency
	evRead   = 0x03 // memory load: uvarint warp, zigzag-varint address delta
	evWrite  = 0x04 // memory store: uvarint warp, zigzag-varint address delta
)

// Errors reported by the reader.
var (
	// ErrBadMagic means the file does not start with a trace magic number.
	ErrBadMagic = errors.New("trace: not a trace file (bad magic)")
	// ErrVersion means the file uses a format version this reader predates.
	ErrVersion = errors.New("trace: unsupported format version")
	// ErrTruncated means the stream ended without the end-of-trace marker.
	ErrTruncated = errors.New("trace: truncated trace (missing end marker)")
	// ErrCorrupt means the stream contains an undecodable record.
	ErrCorrupt = errors.New("trace: corrupt record")
)

// Header describes a recorded trace: the geometry of the GPU it was recorded
// on (the essentials of config.Config needed to interpret and remap the warp
// streams) and the provenance of the run. It is stored as JSON inside the
// compressed stream, so the format survives field additions.
type Header struct {
	// Geometry of the recording GPU.
	NumSMs        int `json:"num_sms"`
	MaxWarpsPerSM int `json:"max_warps_per_sm"`
	NumClusters   int `json:"num_clusters"`
	LLCLineBytes  int `json:"llc_line_bytes"`

	// Provenance of the recorded run.
	Workloads     []string `json:"workloads,omitempty"`
	Seed          int64    `json:"seed"`
	LLCMode       string   `json:"llc_mode,omitempty"`
	Kernels       int      `json:"kernels,omitempty"`
	MeasureCycles uint64   `json:"measure_cycles,omitempty"`
	WarmupCycles  uint64   `json:"warmup_cycles,omitempty"`
	// Adaptive-controller timing of the recording (needed to reproduce an
	// adaptive run's reconfiguration decisions on replay).
	ProfileWindowCycles int `json:"profile_window_cycles,omitempty"`
	EpochCycles         int `json:"epoch_cycles,omitempty"`

	// Multi-program SM-to-application assignment (empty for single-program
	// traces). SMApp[i] is the application index of SM i; Apps is the number
	// of co-recorded applications.
	Apps  int   `json:"apps,omitempty"`
	SMApp []int `json:"sm_app,omitempty"`
}

// TotalWarps returns the number of warp streams in the trace.
func (h Header) TotalWarps() int { return h.NumSMs * h.MaxWarpsPerSM }

// Validate reports whether the header describes a usable geometry.
func (h Header) Validate() error {
	switch {
	case h.NumSMs <= 0:
		return fmt.Errorf("trace: header NumSMs %d must be positive", h.NumSMs)
	case h.MaxWarpsPerSM <= 0:
		return fmt.Errorf("trace: header MaxWarpsPerSM %d must be positive", h.MaxWarpsPerSM)
	case h.LLCLineBytes <= 0:
		return fmt.Errorf("trace: header LLCLineBytes %d must be positive", h.LLCLineBytes)
	case len(h.SMApp) > 0 && len(h.SMApp) != h.NumSMs:
		return fmt.Errorf("trace: header SMApp has %d entries for %d SMs", len(h.SMApp), h.NumSMs)
	}
	return nil
}

// HeaderFor builds a header for a recording on the given configuration.
// Multi-program recordings additionally set Apps and SMApp.
func HeaderFor(cfg config.Config, workloads []string, seed int64, kernels int, measure, warmup uint64) Header {
	return Header{
		NumSMs:              cfg.NumSMs,
		MaxWarpsPerSM:       cfg.MaxWarpsPerSM,
		NumClusters:         cfg.NumClusters,
		LLCLineBytes:        cfg.LLCLineBytes,
		Workloads:           append([]string(nil), workloads...),
		Seed:                seed,
		LLCMode:             cfg.LLCMode.String(),
		Kernels:             kernels,
		MeasureCycles:       measure,
		WarmupCycles:        warmup,
		ProfileWindowCycles: cfg.ProfileWindowCycles,
		EpochCycles:         cfg.EpochCycles,
	}
}

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
