package api

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestToRunSpecValidatesWorkloads: a synthetic workload the generator cannot
// draw from is refused at resolution, which the server answers with a 400,
// instead of reaching a job that panics on its first draw.
func TestToRunSpecValidatesWorkloads(t *testing.T) {
	good, _ := workload.ByAbbr("AN")
	spec := Spec{Workloads: []workload.Spec{good}, MeasureCycles: 1000}
	if _, err := spec.ToRunSpec(); err != nil {
		t.Fatalf("a catalog workload spelled out: %v", err)
	}
	jitter, window, reuse, alu := good, good, good, good
	jitter.FrontierJitterLines = -1
	window.TrailingWindowLines = -1
	reuse.TrailingReuseFraction = 2
	alu.ALULatency = 0
	for name, ws := range map[string][]workload.Spec{
		"negative jitter":         {jitter},
		"negative window":         {window},
		"reuse fraction above 1":  {reuse},
		"second workload invalid": {good, alu},
	} {
		spec := Spec{Benchmarks: []string{"VA"}, Workloads: ws, MeasureCycles: 1000}
		if _, err := spec.ToRunSpec(); err == nil || !strings.Contains(err.Error(), "workloads[") {
			t.Errorf("%s: ToRunSpec err = %v, want the workload refused", name, err)
		}
	}
}
