package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / math.Abs(m)
}

// worsening is by how much of base the candidate is worse, as a share:
// positive means worse, whichever direction "better" points.
func worsening(better string, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cand) / math.Abs(base)
	}
	return (cand - base) / math.Abs(base)
}

// verdict applies one end-to-end metric's bound to two sets of repeats of
// the same workload: "unresolved" when either side's own spread is wider than
// the bound (the noise could hide or fake a regression), "regressed" when the
// candidate median is worse than the base median by more than the bound.
func verdict(better string, bound float64, base, cand []float64) string {
	if len(base) > 1 && spread(base) > bound || len(cand) > 1 && spread(cand) > bound {
		return "unresolved"
	}
	if worsening(better, median(base), median(cand)) > bound {
		return "regressed"
	}
	return "ok"
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minOf(xs []float64) float64 { return percentile(xs, 0) }
func maxOf(xs []float64) float64 { return percentile(xs, 100) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quiet is the host time a run reports for one unit of work it timed many
// times over: the second-fastest repeat. The work is deterministic, so its
// repeats differ only by what the host did meanwhile, and on a few cores of a
// shared machine that only ever adds time: the repeats spread upwards from a
// floor, by a third and more in a busy minute, and a median moves with the
// neighbours while the floor stays put (bench/README.md, "Calibration").
// The very fastest repeat is dropped as a guard against one freak reading,
// such as a set-up that found the cluster converged before it looked.
func quiet(secs []float64) float64 {
	switch len(secs) {
	case 0:
		return 0
	case 1:
		return secs[0]
	}
	s := append([]float64(nil), secs...)
	sort.Float64s(s)
	return s[1]
}

// timing collects the host times of one timed path over a run. Samples
// under one key time the same unit of work (a kernel segment, one spec of the
// batch, a batch of requests) and differ only by what the host did meanwhile.
type timing struct {
	work map[string]float64   // what one sample under the key completes, in the path's unit of work
	secs map[string][]float64 // host seconds of every repeat
}

func newTiming() *timing {
	return &timing{work: map[string]float64{}, secs: map[string][]float64{}}
}

func (t *timing) add(key string, work, secs float64) {
	t.work[key] = work
	t.secs[key] = append(t.secs[key], secs)
}

// samples is the number of timed samples collected.
func (t *timing) samples() int {
	n := 0
	for _, s := range t.secs {
		n += len(s)
	}
	return n
}

// rate is work per host second: the work of every unit over the quiet time
// of every unit.
func (t *timing) rate() float64 {
	var work, secs float64
	for key, s := range t.secs {
		work += t.work[key]
		secs += quiet(s)
	}
	return ratio(work, secs)
}

// typical is the host seconds of the median unit, each at its quiet time.
func (t *timing) typical() float64 {
	var units []float64
	for _, s := range t.secs {
		units = append(units, quiet(s))
	}
	return median(units)
}
