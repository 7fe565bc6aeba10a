package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// env is what every round of one run shares.
type env struct {
	seed int64
	cpus int
	// dir is this run's scratch directory, inside the checkout; every store
	// and temp file lives under it and it is removed when the run ends.
	dir string
	// traces collects the in-memory spans of a traced run; nil turns every
	// span call into a no-op (obs.Span methods are nil-safe).
	traces *obs.TraceSet
}

// thread opens a root span on a new trace-viewer thread, or returns nil when
// tracing is off.
func (e *env) thread(name string) *obs.Span {
	if e.traces == nil {
		return nil
	}
	return e.traces.New(name).Start(name)
}

func (e *env) traced() bool { return e.traces != nil }

// tempDir makes a fresh directory under the run's scratch directory.
func (e *env) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(e.dir, pattern)
}

// roundOut accumulates what the rounds of one run measured.
type roundOut struct {
	// End-to-end samples: one timing per timed path, and the megabytes each
	// round allocated. mainLat is filled only where a main sample is a batch
	// of operations: it holds the batches' median operation latencies.
	setup, main, mainLat, alt, write *timing
	allocMB                          []float64

	// layer holds per-layer observations; the reported value is the median
	// of a metric's observations.
	layer map[string][]float64

	// probing is host time a traced round spent on measurements an untraced
	// round does not make at all (direct SaveState/RestoreState calls, the
	// parallel sweep pass); it is not tracing overhead.
	probing time.Duration

	ops, failed int
	checks      []string
	// digestHex is the stats digest of the first round; every later round
	// must reproduce it.
	digestHex string
	counters  map[string]uint64
	notes     map[string]string
	rounds    int
}

func newRoundOut() *roundOut {
	return &roundOut{layer: map[string][]float64{}, notes: map[string]string{},
		setup: newTiming(), main: newTiming(), mainLat: newTiming(), alt: newTiming(), write: newTiming()}
}

// latency is the timing main_op_ms is read from: the main path's own
// samples where each is one operation.
func (o *roundOut) latency() *timing {
	if o.mainLat.samples() > 0 {
		return o.mainLat
	}
	return o.main
}

func (o *roundOut) obs(name string, v float64) { o.layer[name] = append(o.layer[name], v) }

// fail records a failed self-check; the operation it belongs to counts as
// failed.
func (o *roundOut) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN records one reason for n failed operations.
func (o *roundOut) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.checks) < 20 {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

// closeRound folds one round's digest into the run: the simulator is
// deterministic, so every round must produce the same statistics.
func (o *roundOut) closeRound(d *digest) {
	o.rounds++
	if o.digestHex == "" {
		o.digestHex = d.hex()
		o.counters = d.counters
		return
	}
	if d.hex() != o.digestHex {
		o.fail("round %d produced different simulated statistics than round 1", o.rounds)
	}
}

// checkStats applies the cross-cutting invariants to one run's statistics.
func (o *roundOut) checkStats(spec sweep.RunSpec, st gpu.RunStats) {
	if v := scenario.Invariants(spec, st); len(v) > 0 {
		o.fail("%s: invariant violated: %s", spec.Key, v[0])
	}
}

// sameStats demands byte identity of two runs' statistics.
func (o *roundOut) sameStats(what string, a, b gpu.RunStats) {
	if !bytes.Equal(statsJSON(a), statsJSON(b)) {
		o.fail("%s: statistics differ", what)
	}
}

// timed runs f under a child span and returns its host duration.
func timed(sp *obs.Span, name string, f func()) time.Duration {
	c := sp.Child(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	c.End()
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quiesce collects the garbage of whatever ran before a timed section, so
// the collector's background workers do not compete with it for a core at a
// moment that differs from run to run. It is never inside a timed section.
func quiesce() { runtime.GC() }

// memMark snapshots the allocator counters so a later call can take deltas.
type memMark struct{ totalAlloc, mallocs uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, m.Mallocs}
}

// since reports megabytes and objects allocated since the mark.
func (m memMark) since() (mb float64, objects float64) {
	now := markMem()
	return float64(now.totalAlloc-m.totalAlloc) / (1 << 20), float64(now.mallocs - m.mallocs)
}
