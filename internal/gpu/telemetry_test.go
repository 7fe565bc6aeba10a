package gpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// The process-wide cycle counter must advance with the cycle loop (it never
// enters RunStats, so it cannot perturb the simulation).
func TestTelemetryCountsCycles(t *testing.T) {
	spec, ok := workload.ByAbbr("VA")
	if !ok {
		t.Fatal("unknown benchmark VA")
	}
	cfg := config.Baseline()
	g, err := New(cfg, workload.MustNewGenerator(spec, cfg, 1))
	if err != nil {
		t.Fatal(err)
	}

	before := ReadTelemetry()
	g.advance(2_000, 1, nil)
	if got := ReadTelemetry().SerialCycles - before.SerialCycles; got < 2_000 {
		t.Errorf("cycle counter advanced by %d, want >= 2000", got)
	}
}
