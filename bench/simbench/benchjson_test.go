package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the metric lists of BENCHMARK.json from the catalogue in metrics.go")

const benchmarkJSON = "../../BENCHMARK.json"

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchEndToEnd `json:"end_to_end"`
	PerLayer   []benchPerLayer `json:"per_layer"`
}

func catalogueLists() ([]benchEndToEnd, []benchPerLayer) {
	var e2e []benchEndToEnd
	for _, d := range endToEnd {
		e2e = append(e2e, benchEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	var layer []benchPerLayer
	for _, d := range perLayer {
		layer = append(layer, benchPerLayer{d.Name, d.Unit, d.Better})
	}
	return e2e, layer
}

// renderBenchFile keeps one metric per line so the file diffs well.
func renderBenchFile(b benchFile) []byte {
	line := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return string(data)
	}
	list := func(sb *strings.Builder, key string, n int, item func(i int) any, last bool) {
		sb.WriteString("  \"" + key + "\": [\n")
		for i := 0; i < n; i++ {
			sb.WriteString("    " + line(item(i)))
			if i < n-1 {
				sb.WriteString(",")
			}
			sb.WriteString("\n")
		}
		sb.WriteString("  ]")
		if !last {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	var sb strings.Builder
	sb.WriteString("{\n")
	sb.WriteString("  \"command\": " + line(b.Command) + ",\n")
	sb.WriteString("  \"paths\": " + line(b.Paths) + ",\n")
	sb.WriteString("  \"run_seconds\": " + line(b.RunSeconds) + ",\n")
	list(&sb, "workloads", len(b.Workloads), func(i int) any { return b.Workloads[i] }, false)
	list(&sb, "end_to_end", len(b.EndToEnd), func(i int) any { return b.EndToEnd[i] }, false)
	list(&sb, "per_layer", len(b.PerLayer), func(i int) any { return b.PerLayer[i] }, true)
	sb.WriteString("}\n")
	return []byte(sb.String())
}

func readBenchFile(t *testing.T) (benchFile, []byte) {
	t.Helper()
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields() // exactly these keys
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b, raw
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, raw := readBenchFile(t)
	e2e, layer := catalogueLists()
	if *update {
		b.EndToEnd, b.PerLayer = e2e, layer
		b.Workloads = nil
		for _, w := range workloads {
			b.Workloads = append(b.Workloads, benchWorkload{w.Name, w.Why})
		}
		if err := os.WriteFile(benchmarkJSON, renderBenchFile(b), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(b.EndToEnd, e2e) {
		t.Errorf("end_to_end differs from metrics.go; run go test ./bench/simbench -run BenchmarkJSON -update\n got %+v\nwant %+v", b.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(b.PerLayer, layer) {
		t.Errorf("per_layer differs from metrics.go; run go test ./bench/simbench -run BenchmarkJSON -update")
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i] != (benchWorkload{w.Name, w.Why}) {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has %s / %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(raw))
	}
}

// TestBenchmarkJSONSchema holds the file to the limits of the benchmark
// contract, so a bad edit fails here and not in the driver.
func TestBenchmarkJSONSchema(t *testing.T) {
	b, _ := readBenchFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the charset or length limit", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", n, better)
		}
	}

	if len(b.Command) < 1 || len(b.Command) > 32 {
		t.Errorf("command has %d elements", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command element %q is too long, absolute or leaves the repository", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	// 4 + 22 x workloads runs and two builds must end within 3420 s. A timed
	// run stops before the round that would overshoot run_seconds (input
	// generation included), so allow it 1 s for the up-to-date check of
	// go build and for starting up, half a minute per cold build (23 s on the
	// 2-core reference host), and keep a seventh of the total in hand.
	if runs := 4 + 22*len(b.Workloads); float64(runs)*(float64(b.RunSeconds)+1)+2*30 > 3420*6/7 {
		t.Errorf("%d runs of %d s leave too little of the driver's 3420 s in hand", runs, b.RunSeconds)
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(b.EndToEnd))
	}
	setup := false
	for _, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		name("per-layer", m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// Every per-layer metric names its layer and where it is measured, and every
// prediction ("moves X on workload W") points at a declared metric and
// workload.
func TestCatalogueInteractionMap(t *testing.T) {
	layers := map[string]bool{}
	for _, l := range strings.Fields("ring pool cache addrmap workload sm noc llc dram core gpu checkpoint simstore sweep server client cluster obs trace") {
		layers[l] = true
	}
	sources := map[string]bool{srcGPU: true, srcSweep: true, srcService: true, srcProbe: true, srcRun: true}
	for _, d := range perLayer {
		if !layers[d.Layer] {
			t.Errorf("%s: unknown layer %q", d.Name, d.Layer)
		}
		if !strings.HasPrefix(d.Name, d.Layer+".") {
			t.Errorf("%s: name does not start with its layer %q", d.Name, d.Layer)
		}
		if !sources[d.Source] {
			t.Errorf("%s: unknown source %q", d.Name, d.Source)
		}
		if (len(d.Moves) == 0) != (len(d.On) == 0) {
			t.Errorf("%s: Moves and On go together", d.Name)
		}
		for _, m := range d.Moves {
			if _, ok := findMetric(endToEnd, m); !ok {
				t.Errorf("%s: moves undeclared end-to-end metric %q", d.Name, m)
			}
		}
		for _, w := range d.On {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("%s: on undeclared workload %q", d.Name, w)
			}
		}
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if d.Name != "host_alloc_mb" && w.Paths[d.Name] == "" {
				t.Errorf("workload %s does not say what %s measures on it", w.Name, d.Name)
			}
		}
	}
}
