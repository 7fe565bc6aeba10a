package api

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

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

// TestReadBody: a declared length within the limit is read into one buffer
// of that size; an unknown, oversized or wrong declaration still reads the
// whole body, and a reader's error is returned.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 10_000)
	for _, c := range []struct {
		name        string
		size, limit int64
	}{
		{"declared", int64(len(body)), 1 << 20},
		{"unknown", -1, 1 << 20},
		{"over the limit", int64(len(body)), 100},
		{"declared short", 10, 1 << 20},
		{"empty", 0, 1 << 20},
	} {
		want := body
		if c.name == "empty" {
			want = nil
		}
		got, err := ReadBody(bytes.NewReader(want), c.size, c.limit)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: read %d bytes, err %v; want %d bytes", c.name, len(got), err, len(want))
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		ReadBody(bytes.NewReader(body), int64(len(body)), 1<<20)
	})
	if allocs > 2 { // the buffer, and the bytes.Reader the closure builds
		t.Errorf("a declared body costs %v allocations, want at most 2", allocs)
	}
	boom := errors.New("boom")
	if _, err := ReadBody(io.MultiReader(bytes.NewReader(body[:5]), iotest.ErrReader(boom)), 10, 100); err != boom {
		t.Errorf("reader error = %v, want %v", err, boom)
	}
}
