package simstore

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
