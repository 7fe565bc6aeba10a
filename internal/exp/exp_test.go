package exp

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/sweep"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/figures-tiny.golden")

// tinyOptions keeps the harness tests fast; the figure-level assertions here
// are structural (row counts, formatting, orderings that hold even at small
// scale), while the quantitative claims are covered by the GPU integration
// tests and the top-level benchmarks.
func tinyOptions() Options {
	o := QuickOptions()
	o.MeasureCycles = 5_000
	o.WarmupCycles = 2_000
	o.ProfileWindowCycles = 1_000
	return o
}

func TestOptionsAndHelpers(t *testing.T) {
	if DefaultOptions().MeasureCycles <= QuickOptions().MeasureCycles {
		t.Error("default scale should exceed quick scale")
	}
	cfg := DefaultOptions().baseConfig(config.LLCAdaptive)
	if cfg.LLCMode != config.LLCAdaptive {
		t.Error("baseConfig should set the LLC mode")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("baseConfig invalid: %v", err)
	}
	if got := hmean([]float64{2, 2}); got != 2 {
		t.Errorf("hmean = %v", got)
	}
	if got := hmean(nil); got != 0 {
		t.Errorf("hmean(nil) = %v, want 0", got)
	}
	if got := norm(3, 2); got != 1.5 {
		t.Errorf("norm = %v", got)
	}
	if got := norm(3, 0); got != 0 {
		t.Errorf("norm by zero = %v", got)
	}
}

// TestFigureOptionsResolveOnce pins the one scale resolver at its corners:
// no options keep the defaults, Quick picks the quick scale, and every
// override lands, seed 0 included — a legal seed distinct from "keep the
// default".
func TestFigureOptionsResolveOnce(t *testing.T) {
	if got := (FigureOptions{}).Options(); got != DefaultOptions() {
		t.Errorf("zero options resolved to %+v, want DefaultOptions()", got)
	}
	if got := (FigureOptions{Quick: true}).Options(); got != QuickOptions() {
		t.Errorf("quick resolved to %+v, want QuickOptions()", got)
	}
	zero := int64(0)
	all := FigureOptions{Quick: true, Cycles: 12_345, Warmup: 678, Seed: &zero}
	if got := all.Options(); got.MeasureCycles != 12_345 || got.WarmupCycles != 678 || got.Seed != 0 {
		t.Errorf("overrides resolved to %+v", got)
	}
}

// TestTableShape: a Table that could not render, or whose accessors could
// not tell two rows or statistics apart, is an error at construction.
func TestTableShape(t *testing.T) {
	cols := []column{{"name", ""}, {"kind", ""}, {"x", "%.1f"}}
	hm := line("HM: %.2f", stat{"hm", 1.5})
	tbl, err := newTable("T", 2, cols, [][]any{{"a", "k", 1.25}, {"a", "l", 2.0}}, hm)
	if err != nil {
		t.Fatal(err)
	}
	want := "T\nname  kind  x  \n----  ----  ---\na     k     1.2\na     l     2.0\nHM: 1.50\n"
	if got := tbl.Format(); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
	if v, ok := tbl.Value("a/k", "x"); !ok || v != 1.25 {
		t.Errorf("Value(a/k, x) = %v, %v; want the unrounded 1.25", v, ok)
	}
	if v, ok := tbl.Stat("hm"); !ok || v != 1.5 {
		t.Errorf("Stat(hm) = %v, %v", v, ok)
	}
	for _, miss := range [][2]string{{"a", "x"}, {"a/k", "y"}, {"a/k", "kind"}} {
		if _, ok := tbl.Value(miss[0], miss[1]); ok {
			t.Errorf("Value(%q, %q) found a number", miss[0], miss[1])
		}
	}
	if _, ok := tbl.Stat("nope"); ok {
		t.Error("Stat accepted an unknown name")
	}

	for name, bad := range map[string]struct {
		keys    int
		rows    [][]any
		summary []summaryLine
	}{
		"row wider than the header": {1, [][]any{{"a", "k", 1.0, 2.0}}, nil},
		"row narrower":              {1, [][]any{{"a", "k"}}, nil},
		"label under a verb":        {1, [][]any{{"a", "k", "1.0"}}, nil},
		"int under a verb":          {1, [][]any{{"a", "k", 1}}, nil},
		"number under a label":      {1, [][]any{{"a", 2.0, 1.0}}, nil},
		"numeric key column":        {3, nil, nil},
		"no key column":             {0, nil, nil},
		"duplicate row key":         {1, [][]any{{"a", "k", 1.0}, {"a", "l", 2.0}}, nil},
		"duplicate statistic":       {1, nil, []summaryLine{hm, hm}},
	} {
		if _, err := newTable("T", bad.keys, cols, bad.rows, bad.summary...); err == nil {
			t.Errorf("%s: newTable accepted it", name)
		}
	}
}

// recordingExec records what reaches the executor without simulating
// anything: every declared spec gets zero statistics (or err).
type recordingExec struct {
	batches []int
	err     error
}

func (e *recordingExec) Run(_ context.Context, specs []sweep.RunSpec) ([]sweep.Result, error) {
	e.batches = append(e.batches, len(specs))
	if e.err != nil {
		return nil, e.err
	}
	results := make([]sweep.Result, len(specs))
	for i, s := range specs {
		results[i] = sweep.Result{Index: i, Key: s.Key}
	}
	return results, nil
}

func (e *recordingExec) specs() int {
	n := 0
	for _, b := range e.batches {
		n += b
	}
	return n
}

// TestInjectedExecutor checks that a figure's declared runs are handed to
// Options.Exec instead of the local Runner when one is injected.
func TestInjectedExecutor(t *testing.T) {
	exec := &recordingExec{err: errors.New("remote backend unavailable")}
	o := tinyOptions()
	o.Exec = exec
	fig, _ := FigureByKey("3")
	if _, err := fig.Run(o); err == nil || !strings.Contains(err.Error(), "remote backend unavailable") {
		t.Fatalf("Figure 3 error = %v, want the injected executor's error", err)
	}
	if len(exec.batches) != 1 || exec.batches[0] != len(workload.Catalog()) {
		t.Errorf("executor received batches %v, want one of %d specs (one per benchmark)",
			exec.batches, len(workload.Catalog()))
	}
}

// regenerateRecorded regenerates a selection over a recording executor and
// returns the number of specs each figure handed it.
func regenerateRecorded(t *testing.T, keys ...string) (perFigure []int, total int) {
	t.Helper()
	exec := &recordingExec{}
	o := tinyOptions()
	o.Exec = exec
	var figs []FigureJob
	for _, key := range keys {
		f, ok := FigureByKey(key)
		if !ok {
			t.Fatalf("unknown figure %q", key)
		}
		figs = append(figs, f)
	}
	Regenerate(figs, o, func(f FigureJob, _ Table, reused, simulated int, _ error) {
		// Zero statistics make some tables fail (STP of an idle run); the
		// census is about what was declared and what reached the executor.
		declared := 0
		if f.Specs != nil {
			declared = len(f.Specs(o))
		}
		if reused+simulated != declared {
			t.Errorf("%s: %d reused + %d simulated, %d declared", f.Name, reused, simulated, declared)
		}
		perFigure = append(perFigure, simulated)
	})
	for _, b := range exec.batches {
		if b == 0 {
			t.Error("the executor was called with an empty batch")
		}
	}
	return perFigure, exec.specs()
}

// TestRegenerateOneRunSet pins the run census: the figures slice one grid of
// runs, so a selection regenerated together simulates each distinct
// fingerprint once, and nothing outlives the call.
func TestRegenerateOneRunSet(t *testing.T) {
	// Figures 3, 12, 13 and 14 declare nothing Figures 2 and 11 have not run;
	// stand-alone, the six declare 34+17+51+15+18+22 = 157.
	perFigure, total := regenerateRecorded(t, "2", "3", "11", "12", "13", "14")
	want := []int{34, 0, 17, 0, 0, 0}
	if len(perFigure) != len(want) {
		t.Fatalf("emitted %d figures, want %d", len(perFigure), len(want))
	}
	for i := range want {
		if perFigure[i] != want[i] {
			t.Errorf("executor received %v specs per figure, want %v", perFigure, want)
			break
		}
	}
	if total != 51 {
		t.Errorf("executor received %d specs, want 51", total)
	}

	var all []string
	declared := 0
	for _, f := range Figures() {
		all = append(all, f.Key)
		if f.Specs != nil {
			declared += len(f.Specs(tinyOptions()))
		}
	}
	if declared != 410 {
		t.Errorf("the registry declares %d runs, want 410", declared)
	}
	if _, total := regenerateRecorded(t, all...); total != 237 {
		t.Errorf("regenerating every entry handed the executor %d specs, want 237 unique", total)
	}

	// The run set is scoped to the call: two calls share nothing, and a
	// figure on its own (FigureJob.Run, the daemon's path) is not filtered.
	if _, total := regenerateRecorded(t, "12"); total != 15 {
		t.Errorf("a second call for Figure 12 simulated %d runs, want all 15 again", total)
	}
	exec := &recordingExec{}
	o := tinyOptions()
	o.Exec = exec
	fig, _ := FigureByKey("16")
	if _, err := fig.Run(o); err != nil {
		t.Fatal(err)
	}
	if exec.specs() != 150 {
		t.Errorf("FigureJob.Run handed the executor %d specs, want all 150 declared", exec.specs())
	}
}

func TestFigureRegistry(t *testing.T) {
	figs := Figures()
	wantKeys := []string{"tables", "2", "3", "7", "11", "12", "13", "14", "15", "16"}
	if len(figs) != len(wantKeys) {
		t.Fatalf("registry has %d entries, want %d", len(figs), len(wantKeys))
	}
	for i, want := range wantKeys {
		if figs[i].Key != want {
			t.Errorf("registry[%d].Key = %q, want %q", i, figs[i].Key, want)
		}
		if figs[i].Name == "" || figs[i].Table == nil || (figs[i].Specs == nil) != (want == "tables") {
			t.Errorf("registry entry %q incomplete", figs[i].Key)
		}
	}
	if _, ok := FigureByKey("99"); ok {
		t.Error("FigureByKey accepted an unknown key")
	}
	job, ok := FigureByKey("tables")
	if !ok {
		t.Fatal("tables entry missing")
	}
	out, err := job.Run(tinyOptions())
	if err != nil || !strings.Contains(out, "80 SMs") {
		t.Errorf("tables job: err=%v, output missing Table 1 content", err)
	}
}

func TestTables(t *testing.T) {
	tbl, err := tables(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := tbl.Format()
	for _, want := range []string{"80 SMs", "1400 MHz", "FR-FCFS", "6 MB",
		"\n\nTable 2", "AlexNet", "GEMM", "Vector Add", "private-friendly"} {
		if !strings.Contains(text, want) {
			t.Errorf("tables missing %q", want)
		}
	}
	if v, ok := tbl.next.Value("LU Decomposition", "kernels"); !ok || v != 3 {
		t.Errorf("Table 2 LUD kernels = %v, %v", v, ok)
	}
}

const goldenPath = "testdata/figures-tiny.golden"

// figureBlocks splits the golden format ("### <key>", the figure's text, a
// blank line) into per-figure text, keyed like the registry.
func figureBlocks(data string) map[string]string {
	blocks := map[string]string{}
	for _, block := range strings.Split(data, "### ")[1:] {
		key, text, _ := strings.Cut(block, "\n")
		blocks[key] = strings.TrimSuffix(text, "\n")
	}
	return blocks
}

func goldenFigures(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	return figureBlocks(string(data))
}

// TestGoldenFigureText pins the contract of the harness: the text of every
// registry entry at tinyOptions, regenerated as one selection over one run
// set, against a file generated before the figures became tables.
func TestGoldenFigureText(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	var b strings.Builder
	tables := tinyTables(t)
	for _, f := range Figures() {
		b.WriteString("### " + f.Key + "\n" + tables[f.Key].Format() + "\n")
	}
	if *update {
		if err := os.WriteFile(filepath.FromSlash(goldenPath), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, got := goldenFigures(t), figureBlocks(b.String())
	for _, f := range Figures() {
		if got[f.Key] != want[f.Key] {
			t.Errorf("%s text changed:\n--- golden\n%s\n--- got\n%s\n"+
				"figure text is the harness's contract: a change that alters simulated statistics must bump "+
				"simstore.SimVersion and regenerate the golden file (-update); a refactor must not change it",
				f.Name, want[f.Key], got[f.Key])
		}
	}
	if len(want) != len(Figures()) {
		t.Errorf("golden file has %d blocks, the registry %d entries; regenerate with -update", len(want), len(Figures()))
	}
}

// tiny is the one regeneration of every registry entry at tinyOptions, as
// one selection over one run set: TestGoldenFigureText compares its text and
// the structure tests read its tables.
var tiny struct {
	once   sync.Once
	tables map[string]Table
	err    error
}

// tinyTables returns the tables of that regeneration, running it on first
// use.
func tinyTables(t *testing.T) map[string]Table {
	t.Helper()
	tiny.once.Do(func() {
		tiny.tables = map[string]Table{}
		Regenerate(Figures(), tinyOptions(), func(f FigureJob, tbl Table, _, _ int, err error) {
			if err != nil && tiny.err == nil {
				tiny.err = fmt.Errorf("%s: %w", f.Name, err)
			}
			tiny.tables[f.Key] = tbl
		})
	})
	if tiny.err != nil {
		t.Fatal(tiny.err)
	}
	return tiny.tables
}

// value reads a cell that must exist.
func value(t *testing.T, tbl Table, row, column string) float64 {
	t.Helper()
	v, ok := tbl.Value(row, column)
	if !ok {
		t.Fatalf("%s: no value at row %q, column %q", tbl.title, row, column)
	}
	return v
}

func TestFigure12And13Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	f12 := tinyTables(t)["12"]
	if len(f12.rows) != 5 {
		t.Errorf("Figure 12 rows = %d, want 5 (private-friendly apps)", len(f12.rows))
	}
	if !strings.Contains(f12.Format(), "response rate") {
		t.Error("Figure 12 format missing title")
	}

	f13 := tinyTables(t)["13"]
	if len(f13.rows) != 6 {
		t.Errorf("Figure 13 rows = %d, want 6 (shared-friendly apps)", len(f13.rows))
	}
	private, _ := f13.Stat("avg-private")
	shared, ok := f13.Stat("avg-shared")
	if !ok || private <= shared {
		t.Errorf("Figure 13: private miss rate (%.3f) should exceed shared (%.3f) even at small scale",
			private, shared)
	}
	if !strings.Contains(f13.Format(), "miss rate") {
		t.Error("Figure 13 format missing title")
	}
}

// TestFigureParallelDeterminism checks the figure harness end to end on the
// sweep engine: the same figure regenerated on its own serially and with a
// worker pool must produce identical text — and the text the golden file
// holds for it, which was regenerated over a shared run set (reuse changes
// what is simulated, never what is printed).
func TestFigureParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	serial := tinyOptions()
	serial.Exec = &sweep.Runner{Workers: 1}
	parallel := tinyOptions()
	parallel.Exec = &sweep.Runner{Workers: 4}

	fig, _ := FigureByKey("12")
	a, err := fig.Run(serial)
	if err != nil {
		t.Fatalf("serial Figure 12: %v", err)
	}
	b, err := fig.Run(parallel)
	if err != nil {
		t.Fatalf("parallel Figure 12: %v", err)
	}
	if a != b {
		t.Errorf("parallel Figure 12 differs from serial:\nserial:\n%s\nparallel:\n%s", a, b)
	}
	if want := goldenFigures(t)["12"]; a != want {
		t.Errorf("stand-alone Figure 12 differs from the golden block:\n--- golden\n%s\n--- got\n%s", want, a)
	}
}

func TestFigure7Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	res := tinyTables(t)["7"]
	if len(res.rows) != 8 {
		t.Fatalf("Figure 7 rows = %d, want 8 design points", len(res.rows))
	}
	if value(t, res, "BW/Full Xbar", "norm. IPC") != 1 || value(t, res, "BW/Full Xbar", "norm. power") != 1 {
		t.Error("the full crossbar anchors the normalization")
	}
	// Every design point simulates: a narrowed channel's replies still fit
	// the router buffers.
	for _, r := range res.rows {
		if ipc := value(t, res, res.rowKey(r), "norm. IPC"); ipc <= 0 {
			t.Errorf("%s: norm. IPC %.3f, want > 0", res.rowKey(r), ipc)
		}
	}
	// H-Xbar at the same bisection bandwidth must be smaller than the full
	// crossbar (the area conclusion holds at any simulation scale because it
	// is structural).
	if hx, full := value(t, res, "BW/H-Xbar", "area (mm²)"), value(t, res, "BW/Full Xbar", "area (mm²)"); hx >= full {
		t.Errorf("H-Xbar area (%.2f) should be below the full crossbar (%.2f)", hx, full)
	}
	if !strings.Contains(res.Format(), "design space") {
		t.Error("Figure 7 format missing title")
	}
}

func TestFigure16SensitivityStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	res := tinyTables(t)["16"]
	if len(res.rows) != 15 {
		t.Errorf("Figure 16 rows = %d, want 15 design points", len(res.rows))
	}
	categories := map[string]bool{}
	for _, r := range res.rows {
		categories[r[0].(string)] = true
		if v := r[2].(float64); v <= 0 {
			t.Errorf("%s: speedup %.3f, want > 0", res.rowKey(r), v)
		}
	}
	for _, want := range []string{"address mapping", "channel width", "SM count", "L1 size", "CTA scheduling"} {
		if !categories[want] {
			t.Errorf("missing sensitivity category %q", want)
		}
	}
	if !strings.Contains(res.Format(), "sensitivity") {
		t.Error("Figure 16 format missing title")
	}
}
