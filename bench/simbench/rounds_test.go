package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// The full benchmark never runs under go test. These drive each kind of
// round once at miniature sizes to prove the plumbing: every end-to-end
// sample list fills, every self-check holds, and the driver line has the
// contract's shape.
func TestMiniatureRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a few thousand cycles on the full-size GPU")
	}
	e := &env{seed: 1, cpus: 2, dir: t.TempDir()}
	def := workloadDef{Rep: "VA"}
	for _, kind := range []string{srcGPU, srcSweep, srcService} {
		round, err := rounderFor(e, def, kind, false)
		if err != nil {
			t.Fatal(err)
		}
		o := newRoundOut()
		if err := round(e, o); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if o.failed != 0 || len(o.checks) != 0 {
			t.Errorf("%s: %d failed operations: %v", kind, o.failed, o.checks)
		}
		if o.ops == 0 || o.rounds != 1 || o.digestHex == "" || o.counters["cycles"] == 0 {
			t.Errorf("%s: ops=%d rounds=%d digest=%q counters=%v", kind, o.ops, o.rounds, o.digestHex, o.counters)
		}
		for name, v := range map[string]float64{"setup": o.setup.typical(), "main rate": o.main.rate(),
			"main latency": o.latency().typical(), "alt rate": o.alt.rate(), "write rate": o.write.rate(),
			"alloc": median(o.allocMB)} {
			if v <= 0 {
				t.Errorf("%s: no positive %s sample", kind, name)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(e.dir, "*")); len(left) == 0 {
		t.Error("rounds left nothing in the scratch directory; are stores really on disk?")
	}
}

func TestProbesFillEveryProbeMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a few thousand cycles on the full-size GPU")
	}
	e := &env{seed: 1, cpus: 2, dir: t.TempDir()}
	rep, err := repSpec("LUD", 1)
	if err != nil {
		t.Fatal(err)
	}
	o := newRoundOut()
	if err := runProbes(e, rep, o); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Errorf("probe self-checks failed: %v", o.checks)
	}
	for _, d := range perLayer {
		if d.Source == srcProbe && len(o.layer[d.Name]) == 0 {
			t.Errorf("probe metric %s was not measured", d.Name)
		}
	}
	if got := o.layer["trace.loop_divergence"]; len(got) != 1 || got[0] != 0 {
		t.Errorf("outside-in loop diverged from gpu.Run on the baseline GPU: %v", got)
	}
}

func TestDriverLineShape(t *testing.T) {
	res := WorkloadResult{OpsAttempted: 10, OpsFailed: 0,
		Metrics: map[string]Metric{"setup_s": {Value: 0.25, Unit: "s", Samples: 3}}}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(driverLine(res)), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("driver line has keys %v, want exactly correct, attempted, failed, metrics", got)
	}
	if string(got["correct"]) != "true" || string(got["attempted"]) != "10" || string(got["failed"]) != "0" {
		t.Errorf("driver line %s", driverLine(res))
	}
	if string(got["metrics"]) != `{"setup_s":{"value":0.25,"unit":"s"}}` {
		t.Errorf("metrics = %s", got["metrics"])
	}
	res.FailedChecks = []string{"x"}
	json.Unmarshal([]byte(driverLine(res)), &got)
	if string(got["correct"]) != "false" {
		t.Error("a failed self-check must make the run incorrect")
	}
}
