package gpu

import "sync/atomic"

// Process-wide execution telemetry: one atomic add per loopUntil call, so
// the cycle loop's instrumentation cost is fixed and allocation-free.
// Readers (the simd /metrics endpoint) sample it outside the hot path — the
// counter never feeds RunStats, which stay byte-identical with telemetry
// enabled (the determinism contract).
//
// The counter is package-level rather than per-GPU on purpose: a server
// process runs many short-lived GPU instances concurrently, and the
// interesting signal (aggregate cycles/sec throughput) is per-process.
var cyclesCount atomic.Uint64

// Telemetry is a point-in-time snapshot of the process-wide counters.
type Telemetry struct {
	// SerialCycles counts simulated cycles advanced by the cycle loop since
	// process start.
	SerialCycles uint64
	// ShardedCycles is always zero; delete with bench/simbench/shards.go.
	ShardedCycles uint64
}

// ReadTelemetry samples the cycle counter.
func ReadTelemetry() Telemetry {
	return Telemetry{SerialCycles: cyclesCount.Load()}
}
