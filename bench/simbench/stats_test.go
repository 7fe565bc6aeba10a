package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {25, 17.5}, {50, 25}, {75, 32.5}, {100, 40}, {-5, 10}, {120, 40},
	} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
}

func TestSpreadAndWorsening(t *testing.T) {
	if got := spread([]float64{10, 20, 30, 40}); !near(got, (32.5-17.5)/25) {
		t.Errorf("spread = %v", got)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v, want 0", got)
	}
	// Lower is better: growing from 100 to 108 is 8% worse.
	if got := worsening("lower", 100, 108); !near(got, 0.08) {
		t.Errorf("worsening(lower) = %v", got)
	}
	// Higher is better: falling from 100 to 92 is 8% worse, rising is negative.
	if got := worsening("higher", 100, 92); !near(got, 0.08) {
		t.Errorf("worsening(higher) = %v", got)
	}
	if got := worsening("higher", 100, 110); !near(got, -0.10) {
		t.Errorf("worsening(higher, improved) = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		better string
		bound  float64
		cand   []float64
		want   string
	}{
		{"within bound", "lower", 0.10, []float64{105, 106, 104, 105, 105}, "ok"},
		{"just past bound", "lower", 0.10, []float64{111, 112, 110, 111, 111}, "regressed"},
		{"improvement", "lower", 0.10, []float64{50, 51, 49, 50, 50}, "ok"},
		{"rate fell", "higher", 0.10, []float64{85, 86, 84, 85, 85}, "regressed"},
		{"rate rose", "higher", 0.10, []float64{150, 151, 149, 150, 150}, "ok"},
		{"noise wider than bound", "lower", 0.10, []float64{80, 100, 120, 140, 160}, "unresolved"},
	} {
		if got := verdict(tc.better, tc.bound, steady, tc.cand); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
	// A single run per side has no spread to judge; the bound still applies.
	if got := verdict("lower", 0.10, []float64{100}, []float64{120}); got != "regressed" {
		t.Errorf("single-run verdict = %q, want regressed", got)
	}
}

func TestQuietIsTheSecondFastestRepeat(t *testing.T) {
	for _, tc := range []struct {
		secs []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 2}, 3},
		// One freak reading far below the floor must not set the value, and
		// no amount of slow repeats may move it.
		{[]float64{2.1, 9, 0.4, 2.0, 30, 2.2}, 2.0},
	} {
		if got := quiet(tc.secs); got != tc.want {
			t.Errorf("quiet(%v) = %v, want %v", tc.secs, got, tc.want)
		}
	}
}

func TestTimingRatesEveryUnitAtItsQuietTime(t *testing.T) {
	tm := newTiming()
	// Two units of work timed three times each: 10 units in 2 s and 0 units
	// (pure overhead) in 0.5 s at their second-fastest repeats.
	for _, s := range []float64{2, 1.9, 7} {
		tm.add("segment", 10, s)
	}
	for _, s := range []float64{0.5, 0.6, 0.1} {
		tm.add("snapshot", 0, s)
	}
	if got := tm.rate(); !near(got, 10/2.5) {
		t.Errorf("rate = %v, want 4", got)
	}
	if got := tm.samples(); got != 6 {
		t.Errorf("samples = %d, want 6", got)
	}
	// typical is the median unit's quiet time.
	tm.add("third", 1, 1)
	if got := tm.typical(); !near(got, 1) {
		t.Errorf("typical = %v, want 1", got)
	}
	if got := newTiming().rate(); got != 0 {
		t.Errorf("rate of an empty timing = %v, want 0", got)
	}
}
