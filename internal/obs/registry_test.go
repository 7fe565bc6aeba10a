package obs

import (
	"strings"
	"testing"
)

func TestCounterRendersWithHelpAndType(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("simd_frobs_total", "Frobs performed.")
	c.Inc()
	c.Add(2)
	got := r.Exposition()
	for _, want := range []string{
		"# HELP simd_frobs_total Frobs performed.\n",
		"# TYPE simd_frobs_total counter\n",
		"simd_frobs_total 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}

func TestCounterNameMustEndInTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for counter without _total suffix")
		}
	}()
	NewRegistry().Counter("simd_frobs", "bad name")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("simd_depth", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r.Gauge("simd_depth", "y")
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("simd_http_requests_total", "Requests.", "route", "code")
	v.With("/v1/runs", "200").Add(5)
	v.With("/v1/runs", "404").Inc()
	got := r.Exposition()
	for _, want := range []string{
		`simd_http_requests_total{route="/v1/runs",code="200"} 5`,
		`simd_http_requests_total{route="/v1/runs",code="404"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	// Same label values return the same underlying series.
	v.With("/v1/runs", "200").Inc()
	if c := v.With("/v1/runs", "200").Value(); c != 6 {
		t.Errorf("series not shared across With calls: got %d, want 6", c)
	}
}

func TestGaugeAndFuncSampling(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("simd_queue_depth", "Jobs waiting.")
	g.Set(4)
	g.Add(-1)
	depth := 7.0
	r.GaugeFunc("simd_live_depth", "Sampled.", func() float64 { return depth })
	r.CounterFunc("simd_sampled_total", "Sampled counter.", func() float64 { return 11 })
	got := r.Exposition()
	for _, want := range []string{"simd_queue_depth 3\n", "simd_live_depth 7\n", "simd_sampled_total 11\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	depth = 9
	if !strings.Contains(r.Exposition(), "simd_live_depth 9\n") {
		t.Error("GaugeFunc not re-sampled at render time")
	}
}

// Histogram bucket boundaries are "le" (<=): a value equal to an upper
// bound lands in that bucket, just above it lands in the next, and
// anything beyond the last bound lands only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("simd_lat_seconds", "Latency.", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.1, 0.10001, 0.5, 0.7, 1, 2, 50} {
		h.Observe(v)
	}
	got := r.Exposition()
	for _, want := range []string{
		`simd_lat_seconds_bucket{le="0.1"} 1`,  // 0.1 exactly
		`simd_lat_seconds_bucket{le="0.5"} 3`,  // + 0.10001, 0.5
		`simd_lat_seconds_bucket{le="1"} 5`,    // + 0.7, 1
		`simd_lat_seconds_bucket{le="+Inf"} 7`, // + 2, 50
		`simd_lat_seconds_count 7`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "simd_lat_seconds_sum 54.40001\n") {
		t.Errorf("bad _sum:\n%s", got)
	}
	if h.Count() != 7 {
		t.Errorf("Count() = %d, want 7", h.Count())
	}
}

func TestHistogramVecPerLabelBuckets(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("simd_fwd_seconds", "Forward latency.", []float64{1}, "peer")
	v.With("a").Observe(0.5)
	v.With("a").Observe(2)
	v.With("b").Observe(0.25)
	got := r.Exposition()
	for _, want := range []string{
		`simd_fwd_seconds_bucket{peer="a",le="1"} 1`,
		`simd_fwd_seconds_bucket{peer="a",le="+Inf"} 2`,
		`simd_fwd_seconds_bucket{peer="b",le="+Inf"} 1`,
		`simd_fwd_seconds_count{peer="a"} 2`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}

func TestHistogramBucketsMustIncrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-increasing buckets")
		}
	}()
	NewRegistry().Histogram("simd_bad_seconds", "x", []float64{1, 1})
}

// Nil instruments no-op so call sites never need telemetry-enabled checks.
func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	cv.With("x").Inc()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments should read zero")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("simd_x_total", "x", "q").With(`a"b\c` + "\n").Inc()
	got := r.Exposition()
	want := `simd_x_total{q="a\"b\\c\n"} 1`
	if !strings.Contains(got, want) {
		t.Errorf("escaping wrong; want %q in:\n%s", want, got)
	}
	if errs := Lint(got); errs != nil {
		t.Errorf("escaped exposition should lint clean: %v", errs)
	}
}

// Every registered family renders HELP/TYPE even with zero observations,
// so a fresh server's /metrics already declares its full schema (the
// dashboard test depends on this).
func TestEmptyFamiliesStillDeclared(t *testing.T) {
	r := NewRegistry()
	r.HistogramVec("simd_idle_seconds", "Never observed.", nil, "route")
	got := r.Exposition()
	if !strings.Contains(got, "# TYPE simd_idle_seconds histogram\n") {
		t.Errorf("empty family lost its TYPE line:\n%s", got)
	}
	if errs := Lint(got); errs != nil {
		t.Errorf("lint: %v", errs)
	}
}

func TestRegistryExpositionLintsClean(t *testing.T) {
	r := NewRegistry()
	r.Counter("simd_a_total", "a").Inc()
	r.Gauge("simd_b", "b").Set(2.5)
	h := r.Histogram("simd_c_seconds", "c", nil)
	h.Observe(0.003)
	h.Observe(700) // beyond last bucket: +Inf only
	r.CounterVec("simd_d_total", "d", "k").With("v1").Inc()
	if errs := Lint(r.Exposition()); errs != nil {
		t.Fatalf("registry output must lint clean:\n%v\n%s", errs, r.Exposition())
	}
}
