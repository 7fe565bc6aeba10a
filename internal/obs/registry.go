// Package obs is the unified telemetry layer of the repository: a
// dependency-free metrics registry rendering the Prometheus text exposition
// format, a run-lifecycle span tracer with JSON and Chrome trace-event
// output, and a promlint-style exposition validator.
//
// Design constraints (see DESIGN.md "Observability"):
//
//   - stdlib only, so every subsystem (queue, store, checkpoint manager,
//     cluster forwarder) can report into it without pulling a client
//     library into the simulator.
//   - Instruments are nil-safe: a nil *Counter/*Histogram/*Span
//     no-ops, so components can be instrumented unconditionally and pay one
//     pointer check when telemetry is not wired up.
//   - Hot-path friendly: counters and histograms are lock-free atomics;
//     nothing in Observe/Add/Inc allocates. Derived values (queue depth,
//     store sizes) register as sampling funcs evaluated only at scrape time,
//     which is how the simulator's zero-allocation cycle loop stays
//     zero-allocation with metrics enabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric families render in one of these exposition types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families and renders them as Prometheus text
// exposition format (version 0.0.4). Families are created through the
// typed constructors; duplicate or invalid names panic (a programming
// error, caught by the first scrape in any test).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series // key: joined label values
	order  []string
}

// series is one (family, label values) sample stream. Exactly one of the
// value kinds is active, matching the family type.
type series struct {
	labelValues []string

	count atomic.Uint64 // counter increments
	fn    func() float64

	// histogram state: bucketCounts[i] counts observations <= buckets[i];
	// the implicit +Inf bucket is hCount.
	bucketCounts []atomic.Uint64
	hSum         atomic.Uint64 // float64 bits, CAS-updated
	hCount       atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) newFamily(name, help, typ string, buckets []float64, labelNames ...string) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if typ == typeCounter && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %q must end in _total (Prometheus naming convention)", name))
	}
	for _, l := range labelNames {
		if !labelRe.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: labelNames,
		buckets:    buckets,
		series:     make(map[string]*series),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	if r.families == nil {
		r.families = make(map[string]*family)
	}
	r.families[name] = f
	return f
}

// child returns (creating if needed) the series for the given label values.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	if f.typ == typeHistogram {
		s.bucketCounts = make([]atomic.Uint64, len(f.buckets))
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter is a monotonically increasing count. Nil-safe.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil || c.s == nil {
		return
	}
	if c.s.fn != nil {
		panic("obs: Add on a sampling-func counter")
	}
	c.s.count.Add(n)
}

// Value returns the current count (0 for sampling-func counters; those are
// read at render time).
func (c *Counter) Value() uint64 {
	if c == nil || c.s == nil {
		return 0
	}
	return c.s.count.Load()
}

// Histogram counts observations into fixed cumulative buckets. Nil-safe.
type Histogram struct {
	f *family
	s *series
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	// Buckets are "le" (<=) upper bounds; find the first bucket that holds v.
	// Linear scan: bucket lists are short (~20) and scans are branch-predictable.
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.s.bucketCounts[i].Add(1)
			break
		}
	}
	h.s.hCount.Add(1)
	for {
		old := h.s.hSum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.hSum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// DurationBuckets are the default histogram buckets for durations in
// seconds, spanning sub-millisecond HTTP handling to multi-minute
// simulations.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// CounterFunc registers a counter whose value is sampled at scrape time.
// Use it to expose counters a subsystem already maintains (queue stats,
// store stats) without double-counting plumbing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.newFamily(name, help, typeCounter, nil)
	f.child(nil).fn = fn
}

// CounterVec registers a labeled counter family. Counter names must end in
// _total.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.newFamily(name, help, typeCounter, nil, labelNames...)}
}

// CounterVec is a labeled counter family; With returns the series for one
// label-value tuple, creating it on first use.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (in registration
// order of the label names).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.child(values)}
}

// GaugeFunc registers a gauge sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.newFamily(name, help, typeGauge, nil)
	f.child(nil).fn = fn
}

// Histogram registers an unlabeled histogram. nil buckets use
// DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	f := r.newFamily(name, help, typeHistogram, buckets)
	return &Histogram{f: f, s: f.child(nil)}
}

// HistogramVec registers a labeled histogram family. nil buckets use
// DurationBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DurationBuckets
	}
	return &HistogramVec{f: r.newFamily(name, help, typeHistogram, buckets, labelNames...)}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{f: v.f, s: v.f.child(values)}
}

// FamilyNames returns every registered metric name, sorted. The Grafana
// dashboard test uses it to assert the dashboard only references exported
// series.
func (r *Registry) FamilyNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteExposition renders every family in Prometheus text exposition format
// (families sorted by name, series in creation order, HELP/TYPE first).
func (r *Registry) WriteExposition(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Exposition renders the registry to a string.
func (r *Registry) Exposition() string {
	var b strings.Builder
	r.WriteExposition(&b)
	return b.String()
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	children := make([]*series, len(keys))
	for i, k := range keys {
		children[i] = f.series[k]
	}
	f.mu.Unlock()
	for _, s := range children {
		switch f.typ {
		case typeHistogram:
			f.renderHistogram(b, s)
		default:
			v := float64(s.count.Load())
			if s.fn != nil {
				v = s.fn()
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labelNames, s.labelValues, "", ""), formatValue(v))
		}
	}
}

func (f *family) renderHistogram(b *strings.Builder, s *series) {
	cum := uint64(0)
	for i, ub := range f.buckets {
		cum += s.bucketCounts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
			labelString(f.labelNames, s.labelValues, "le", formatValue(ub)), cum)
	}
	count := s.hCount.Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
		labelString(f.labelNames, s.labelValues, "le", "+Inf"), count)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
		labelString(f.labelNames, s.labelValues, "", ""), formatValue(math.Float64frombits(s.hSum.Load())))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name,
		labelString(f.labelNames, s.labelValues, "", ""), count)
}

// labelString renders {a="x",b="y"} with an optional extra label appended
// (the histogram "le" bound); empty when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders floats the way Prometheus expects: integral values
// without an exponent, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
