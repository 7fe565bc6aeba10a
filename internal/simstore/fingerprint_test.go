package simstore

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sweep"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

// goldenSpecs are representative runs whose fingerprints are pinned in
// testdata/fingerprints.golden. If this test fails after an intentional
// change to the fingerprint inputs (RunSpec/Config/workload.Spec fields, the
// canonical encoding, or a salt bump), regenerate with
//
//	go test ./internal/simstore -run TestGoldenFingerprints -update
//
// and say so in the commit: every previously cached result is invalidated.
func goldenSpecs() map[string]sweep.RunSpec {
	va, _ := workload.ByAbbr("VA")
	gemm, _ := workload.ByAbbr("GEMM")
	an, _ := workload.ByAbbr("AN")
	lud, _ := workload.ByAbbr("LUD")

	shared := config.Baseline()
	adaptive := config.Baseline()
	adaptive.LLCMode = config.LLCAdaptive
	adaptive.ProfileWindowCycles = 2_000

	return map[string]sweep.RunSpec{
		"va-shared-default": {
			Workloads:     []workload.Spec{va},
			Config:        shared,
			Seed:          1,
			MeasureCycles: 20_000,
			WarmupCycles:  8_000,
		},
		"gemm-adaptive": {
			Workloads:     []workload.Spec{gemm},
			Config:        adaptive,
			Seed:          3,
			MeasureCycles: 60_000,
			WarmupCycles:  20_000,
		},
		"multiprogram-appmodes": {
			Workloads:     []workload.Spec{an, lud},
			Config:        adaptive,
			AppModes:      []config.LLCMode{config.LLCPrivate, config.LLCShared},
			Seed:          1,
			MeasureCycles: 20_000,
		},
	}
}

func TestGoldenFingerprints(t *testing.T) {
	golden := filepath.Join("testdata", "fingerprints.golden")
	specs := goldenSpecs()

	if *update {
		names := make([]string, 0, len(specs))
		for n := range specs {
			names = append(names, n)
		}
		// Deterministic file order.
		for i := 1; i < len(names); i++ {
			for j := i; j > 0 && names[j] < names[j-1]; j-- {
				names[j], names[j-1] = names[j-1], names[j]
			}
		}
		var b strings.Builder
		for _, n := range names {
			fp, err := Fingerprint(specs[n])
			if err != nil {
				t.Fatalf("fingerprint %s: %v", n, err)
			}
			fmt.Fprintf(&b, "%s %s\n", n, Hex(fp))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}

	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, wantHex, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		spec, ok := specs[name]
		if !ok {
			t.Errorf("golden entry %q has no spec (stale golden file?)", name)
			continue
		}
		seen++
		fp, err := Fingerprint(spec)
		if err != nil {
			t.Fatalf("fingerprint %s: %v", name, err)
		}
		if got := Hex(fp); got != wantHex {
			t.Errorf("fingerprint of %s changed:\n  golden %s\n  got    %s\n"+
				"an intentional hash-breaking change must bump simstore.SimVersion and regenerate the golden file (-update)",
				name, wantHex, got)
		}
	}
	if seen != len(specs) {
		t.Errorf("golden file covers %d/%d specs; regenerate with -update", seen, len(specs))
	}
}

// TestFingerprintInsensitivity: differences that cannot change simulated
// statistics must not change the fingerprint.
func TestFingerprintInsensitivity(t *testing.T) {
	base := goldenSpecs()["va-shared-default"]

	a := base
	a.Key = "some-name"
	a.RecordPath = "capture.trace"

	b := base
	b.Key = "another-name"
	b.Kernels = base.Workloads[0].Kernels // explicit default
	b.Config = b.Config.Normalize()       // derived fields spelled out

	fpA, err := Fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := Fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Errorf("Key/RecordPath/explicit-default differences changed the fingerprint:\n%s\n%s",
			Hex(fpA), Hex(fpB))
	}
}

// TestFingerprintSensitivity: every semantically meaningful change must move
// the digest.
func TestFingerprintSensitivity(t *testing.T) {
	base := goldenSpecs()["va-shared-default"]
	fpBase, err := Fingerprint(base)
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*sweep.RunSpec){
		"seed":    func(s *sweep.RunSpec) { s.Seed++ },
		"cycles":  func(s *sweep.RunSpec) { s.MeasureCycles++ },
		"warmup":  func(s *sweep.RunSpec) { s.WarmupCycles++ },
		"kernels": func(s *sweep.RunSpec) { s.Kernels = 5 },
		"mode":    func(s *sweep.RunSpec) { s.Config.LLCMode = config.LLCPrivate },
		"l1-size": func(s *sweep.RunSpec) { s.Config.L1SizeBytes *= 2 },
		"workload": func(s *sweep.RunSpec) {
			w, _ := workload.ByAbbr("MM")
			s.Workloads = []workload.Spec{w}
		},
	}
	for name, mutate := range mutations {
		s := base
		s.Workloads = append([]workload.Spec(nil), base.Workloads...)
		mutate(&s)
		fp, err := Fingerprint(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp == fpBase {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
}

// TestFingerprintTraceContent: trace replays are addressed by trace content,
// not path.
func TestFingerprintTraceContent(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.trace")
	pathB := filepath.Join(dir, "renamed.trace")
	pathC := filepath.Join(dir, "edited.trace")
	if err := os.WriteFile(pathA, []byte("trace-bytes-1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathB, []byte("trace-bytes-1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathC, []byte("trace-bytes-2"), 0o644); err != nil {
		t.Fatal(err)
	}

	spec := func(path string) sweep.RunSpec {
		return sweep.RunSpec{TracePath: path, Config: config.Baseline(), MeasureCycles: 1_000}
	}
	fpA, err := Fingerprint(spec(pathA))
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := Fingerprint(spec(pathB))
	if err != nil {
		t.Fatal(err)
	}
	fpC, err := Fingerprint(spec(pathC))
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Error("same trace content under different paths fingerprinted differently")
	}
	if fpA == fpC {
		t.Error("different trace content fingerprinted identically")
	}
	if _, err := Fingerprint(spec(filepath.Join(dir, "missing.trace"))); err == nil {
		t.Error("missing trace file must fail the fingerprint, not silently hash the path")
	}
}

// refCanonical is the original streaming form of appendCanonical: a
// reflection walk that sorts each struct's fields on every call. It is the
// reference the planned encoder must match byte for byte.
func refCanonical(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		byName := make(map[string]reflect.Value, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fv := v.Field(i)
			if fv.IsZero() {
				continue
			}
			names = append(names, f.Name)
			byName[f.Name] = fv
		}
		sort.Strings(names)
		io.WriteString(w, "{")
		for _, n := range names {
			io.WriteString(w, n)
			io.WriteString(w, "=")
			refCanonical(w, byName[n])
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
	case reflect.Slice, reflect.Array:
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			refCanonical(w, v.Index(i))
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	case reflect.String:
		io.WriteString(w, strconv.Quote(v.String()))
	case reflect.Bool:
		io.WriteString(w, strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		io.WriteString(w, strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		io.WriteString(w, strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		io.WriteString(w, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		panic(fmt.Sprintf("simstore: unsupported kind %s in canonical encoding", v.Kind()))
	}
}

// refSpec is the digest input the original Fingerprint streamed into its
// hash for spec.
func refSpec(t testing.TB, spec sweep.RunSpec) []byte {
	c := spec.Canonical()
	if c.TracePath != "" {
		sum, err := fileDigest(c.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		c.TracePath = "sha256:" + hex.EncodeToString(sum)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "simstore/%d|%s|", SchemaVersion, SimVersion)
	refCanonical(&b, reflect.ValueOf(c))
	return b.Bytes()
}

// setEveryField gives every exported scalar reachable from v a value no
// default uses, so no field is skipped as zero.
func setEveryField(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				setEveryField(v.Field(i), n)
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(-7 * *n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(1_000_003 * *n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1e-9 / float64(*n))
	case reflect.String:
		v.SetString(fmt.Sprintf("f%d\t\"\xff", *n))
	case reflect.Bool:
		v.SetBool(true)
	}
}

// TestCanonicalMatchesReference: the planned encoder writes the same bytes
// as the reference for every catalog benchmark under each LLC organization,
// a multi-program spec with per-application modes, a trace replay (whose
// path becomes a content digest) and configurations with non-default
// fields.
func TestCanonicalMatchesReference(t *testing.T) {
	specs := map[string]sweep.RunSpec{}
	for _, w := range workload.Catalog() {
		for _, mode := range []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive} {
			cfg := config.Baseline()
			cfg.LLCMode = mode
			specs[fmt.Sprintf("%s/%v", w.Abbr, mode)] = sweep.RunSpec{
				Workloads: []workload.Spec{w}, Config: cfg, Seed: 1,
				MeasureCycles: 20_000, WarmupCycles: 8_000,
			}
		}
	}
	for name, s := range goldenSpecs() {
		specs["golden/"+name] = s
	}

	trace := filepath.Join(t.TempDir(), "run.trace")
	if err := os.WriteFile(trace, []byte("trace-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	specs["trace-replay"] = sweep.RunSpec{TracePath: trace, TraceLoop: true, Config: config.Baseline(), MeasureCycles: 1_000}

	handSet := specFor(t, "LUD", 9)
	handSet.Config.L1SizeBytes *= 2
	handSet.Config.ChannelBytes = 16
	handSet.Config.FlitsPerVC = handSet.Config.ReplyFlits()
	handSet.Config.DRAMBandwidthGBs = 123.456
	handSet.Config.MissRateSimilarity = 0.015
	handSet.Config.BusBytesPerCycle = 0
	specs["hand-set-config"] = handSet

	every := specFor(t, "MM", -3)
	every.Kernels = -1
	n := 0
	setEveryField(reflect.ValueOf(&every.Config).Elem(), &n)
	setEveryField(reflect.ValueOf(&every.Workloads[0]).Elem(), &n)
	specs["every-field-set"] = every

	for name, s := range specs {
		got, err := appendSpec(nil, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refSpec(t, s); !bytes.Equal(got, want) {
			t.Errorf("%s: planned encoding differs from the reference:\ngot  %s\nwant %s", name, got, want)
		}
	}
}

// FuzzCanonical builds a RunSpec from fuzzed scalars and requires the
// planned encoder to match the reference on both the spec as written and
// its canonical form.
func FuzzCanonical(f *testing.F) {
	f.Add(int64(1), uint64(20_000), uint64(8_000), 0, uint8(0), "VA", 0.35, -1.5, 32768, true)
	f.Add(int64(-9), uint64(0), uint64(1<<63), -4, uint8(7), "\xff\"\n\u2028", 1e-300, 0.0, 0, false)
	catalog := workload.Catalog()
	f.Fuzz(func(t *testing.T, seed int64, measure, warmup uint64, kernels int, modes uint8,
		name string, ratio, gbs float64, l1 int, loop bool) {
		w := catalog[int(modes)%len(catalog)]
		w.Name = name
		w.MemRatio = ratio
		cfg := config.Baseline()
		cfg.LLCMode = config.LLCMode(modes % 3)
		cfg.DRAMBandwidthGBs = gbs
		cfg.L1SizeBytes = l1
		spec := sweep.RunSpec{
			Key:           name,
			Workloads:     []workload.Spec{w, catalog[0]},
			Config:        cfg,
			Seed:          seed,
			MeasureCycles: measure,
			WarmupCycles:  warmup,
			Kernels:       kernels,
			TraceLoop:     loop,
		}
		if modes&4 != 0 {
			spec.AppModes = []config.LLCMode{config.LLCMode(modes >> 3), config.LLCShared}
		}
		for _, s := range []sweep.RunSpec{spec, spec.Canonical()} {
			v := reflect.ValueOf(s)
			var want bytes.Buffer
			refCanonical(&want, v)
			if got := appendCanonical(nil, v); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("planned encoding differs from the reference:\ngot  %s\nwant %s", got, want.Bytes())
			}
		}
	})
}
