package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/gpu"
)

// Metric is one reported number. Samples is how many samples it was taken
// over (0 for a count or a single measurement): an end-to-end timing is the
// quiet time of its samples (stats.go), everything else their median.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// WorkloadResult is what one run of one workload produced.
type WorkloadResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Rounds   int    `json:"rounds"`
	// WallS is the host wall-clock of the whole run, set-up and checks
	// included.
	WallS        float64 `json:"wall_s"`
	OpsAttempted int     `json:"ops_attempted"`
	OpsFailed    int     `json:"ops_failed"`
	// StatsDigest is the SHA-256 of the JSON of every gpu.RunStats one round
	// produced (every round must produce the same ones). Counters are exact
	// simulated counts; a speed-only change must leave both unchanged.
	StatsDigest string            `json:"stats_digest"`
	Counters    map[string]uint64 `json:"counters"`
	Metrics     map[string]Metric `json:"metrics"`
	// FailedChecks lists the self-checks that did not hold.
	FailedChecks []string `json:"failed_checks,omitempty"`
	// Notes are free-form observations (shard count used, trace file).
	Notes map[string]string `json:"notes,omitempty"`
}

// Host identifies the machine and toolchain of a recording. Results taken
// with different HostCPUs are not comparable.
type Host struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() Host {
	return Host{
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// ResultFile is what -out writes and -compare reads: one entry per run, so a
// file may hold several repeats of a workload.
type ResultFile struct {
	Host       Host             `json:"host"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Model      string           `json:"model"`
	TotalWallS float64          `json:"total_wall_s"`
	Runs       []WorkloadResult `json:"runs"`
}

// modelNote is repeated in every result: the repository holds no
// reference-hardware measurements, so no error figure exists.
const modelNote = "model unvalidated against hardware; simulated statistics are exact counts of this model, not predictions of a real GPU"

func writeResultFile(path string, rf ResultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (ResultFile, error) {
	var rf ResultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// statsJSON is the canonical byte form two RunStats are compared in: the
// self-checks demand byte identity, not approximate equality.
func statsJSON(s gpu.RunStats) []byte {
	data, err := json.Marshal(s)
	if err != nil {
		// RunStats holds only numbers, slices and maps of numbers.
		panic(fmt.Sprintf("simbench: marshal RunStats: %v", err))
	}
	return data
}

// digest accumulates RunStats into the round's stats digest and the exact
// counters.
type digest struct {
	h        [32]byte
	started  bool
	counters map[string]uint64
}

func newDigest() *digest { return &digest{counters: map[string]uint64{}} }

func (d *digest) add(s gpu.RunStats) {
	hh := sha256.New()
	if d.started {
		hh.Write(d.h[:])
	}
	hh.Write(statsJSON(s))
	hh.Sum(d.h[:0])
	d.started = true
	d.counters["runs"]++
	d.counters["cycles"] += s.Cycles
	d.counters["instructions"] += s.Instructions
	d.counters["l1_misses"] += s.SM.L1Misses
	d.counters["llc_accesses"] += s.LLC.Accesses
	d.counters["dram_requests"] += s.DRAM.Requests
	d.counters["noc_flits"] += s.NoC.FlitsInjected
	d.counters["reconfigs"] += s.ReconfigCount
}

func (d *digest) hex() string { return hex.EncodeToString(d.h[:]) }
