package api

import (
	"strings"
	"testing"

	"repro/internal/exp"
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

// TestFigureOptionsResolveOnce pins the wire codec over the whole option
// grid: what a client encodes, the server decodes to the same FigureOptions,
// so the one resolver (Options) gives both sides the same harness scale.
// Seed 0 is a legal seed distinct from "keep the default" and must survive
// the wire; an absent seed must not override anything.
func TestFigureOptionsResolveOnce(t *testing.T) {
	zero, seven := int64(0), int64(7)
	for _, quick := range []bool{false, true} {
		for _, cycles := range []uint64{0, 12_345} {
			for _, warmup := range []uint64{0, 678} {
				for _, seed := range []*int64{nil, &zero, &seven} {
					sent := FigureOptions{Quick: quick, Cycles: cycles, Warmup: warmup, Seed: seed}
					got, err := ParseFigureOptions(sent.Query())
					if err != nil {
						t.Fatalf("%+v: %v", sent, err)
					}
					if got.Options() != sent.Options() {
						t.Errorf("%+v: served exp.Options %+v, local %+v", sent, got.Options(), sent.Options())
					}
				}
			}
		}
	}

	// The resolver itself, at the corners the grid cannot tell apart.
	if got := (FigureOptions{}).Options(); got != exp.DefaultOptions() {
		t.Errorf("zero options resolved to %+v, want exp.DefaultOptions()", got)
	}
	if got := (FigureOptions{Quick: true}).Options(); got != exp.QuickOptions() {
		t.Errorf("quick resolved to %+v, want exp.QuickOptions()", got)
	}
	all := FigureOptions{Quick: true, Cycles: 12_345, Warmup: 678, Seed: &zero}
	if got := all.Options(); got.MeasureCycles != 12_345 || got.WarmupCycles != 678 || got.Seed != 0 {
		t.Errorf("overrides resolved to %+v", got)
	}
}
