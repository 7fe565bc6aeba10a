package checkpoint

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/simstore"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// microCfg is the fuzzer's micro GPU (see scenario.MicroConfig): the smallest
// structurally complete machine, so whole-sweep round-trips stay fast.
func microCfg(mode config.LLCMode) config.Config {
	cfg := config.Baseline()
	cfg.NumSMs = 4
	cfg.NumClusters = 2
	cfg.MaxWarpsPerSM = 4
	cfg.MaxCTAsPerSM = 2
	cfg.SchedulersPerSM = 1
	cfg.NumMemControllers = 2
	cfg.LLCSlicesPerMC = 2
	cfg.LLCSliceBytes = 8 * 1024
	cfg.L1SizeBytes = 6 * 1024
	cfg.L1MSHRs = 4
	cfg.LLCMSHRsPerSlice = 4
	cfg.ATDSampledSets = 4
	cfg.ProfileWindowCycles = 200
	cfg.LLCMode = mode
	return cfg
}

func benchSpec(t *testing.T, abbr string, kernels int) workload.Spec {
	t.Helper()
	s, ok := workload.ByAbbr(abbr)
	if !ok {
		t.Fatalf("unknown benchmark %s", abbr)
	}
	s.Kernels = kernels
	return s
}

func genRunSpec(t *testing.T, mode config.LLCMode) sweep.RunSpec {
	return sweep.RunSpec{
		Key:           "checkpoint-test",
		Workloads:     []workload.Spec{benchSpec(t, "BP", 3)},
		Config:        microCfg(mode),
		Seed:          11,
		MeasureCycles: 6_000,
		WarmupCycles:  2_000,
		Kernels:       3,
	}
}

func newManager(t *testing.T) (*Manager, *simstore.Store) {
	t.Helper()
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(store), store
}

func requireEqualStats(t *testing.T, want, got gpu.RunStats, what string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: statistics differ from cold run\ncold: %+v\ngot:  %+v", what, want, got)
	}
}

// blobPath locates a checkpoint blob inside a store directory (the tests
// corrupt files directly, as an external process or disk fault would).
func blobPath(dir string, key [32]byte) string {
	hex := simstore.Hex(key)
	return filepath.Join(dir, hex[:2], hex+".ckpt")
}

// TestSweepResumeByteIdentical is the subsystem's round-trip gate at the
// sweep.Execute level: a run that populates the checkpoint store, a re-run
// that resumes from the furthest kernel boundary, and a longer run that
// resumes from the shared warmup prefix must all report statistics
// byte-identical to cold execution.
func TestSweepResumeByteIdentical(t *testing.T) {
	variants := []struct {
		name string
		spec func(t *testing.T) sweep.RunSpec
	}{
		{"shared", func(t *testing.T) sweep.RunSpec { return genRunSpec(t, config.LLCShared) }},
		{"private", func(t *testing.T) sweep.RunSpec { return genRunSpec(t, config.LLCPrivate) }},
		{"adaptive", func(t *testing.T) sweep.RunSpec { return genRunSpec(t, config.LLCAdaptive) }},
		{"multiprogram-per-app", func(t *testing.T) sweep.RunSpec {
			s := genRunSpec(t, config.LLCShared)
			s.Workloads = []workload.Spec{benchSpec(t, "BP", 3), benchSpec(t, "VA", 3)}
			s.AppModes = []config.LLCMode{config.LLCShared, config.LLCPrivate}
			return s
		}},
		{"trace-replay", func(t *testing.T) sweep.RunSpec {
			rec := genRunSpec(t, config.LLCShared)
			rec.RecordPath = filepath.Join(t.TempDir(), "bp.trace")
			if _, err := sweep.Execute(rec); err != nil {
				t.Fatal(err)
			}
			s := rec
			s.Workloads = nil
			s.RecordPath = ""
			s.TracePath = rec.RecordPath
			return s
		}},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			spec := v.spec(t)
			cold, err := sweep.Execute(spec)
			if err != nil {
				t.Fatal(err)
			}

			mgr, store := newManager(t)

			first, err := sweep.ExecuteSpanned(spec, mgr, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualStats(t, cold, first, "populating run")
			st := mgr.ManagerStats()
			if st.Hits != 0 || st.Saves != 3 || st.Errors != 0 {
				t.Fatalf("populating run: stats %+v, want 0 hits, 3 saves, 0 errors", st)
			}
			if ss := store.StoreStats(); ss.Blobs != 3 || ss.TotalBytes == 0 {
				t.Fatalf("store holds %d blobs / %d bytes, want 3 blobs", ss.Blobs, ss.TotalBytes)
			}

			second, err := sweep.ExecuteSpanned(spec, mgr, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualStats(t, cold, second, "kernel-boundary resume")
			if st := mgr.ManagerStats(); st.Hits != 1 || st.Errors != 0 {
				t.Fatalf("resumed run: stats %+v, want 1 hit, 0 errors", st)
			}

			// A longer measurement shares only the warmup prefix.
			longer := spec
			longer.MeasureCycles = spec.MeasureCycles + 3_000
			cold2, err := sweep.Execute(longer)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := sweep.ExecuteSpanned(longer, mgr, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualStats(t, cold2, warm, "warmup-prefix resume")
			if st := mgr.ManagerStats(); st.Hits != 2 || st.Errors != 0 {
				t.Fatalf("warmup resume: stats %+v, want 2 hits, 0 errors", st)
			}
		})
	}
}

// TestUnevenWindowBanksOnlyProbedBoundaries: a measured window that Kernels
// does not divide evenly fires Kernels boundaries, the last a few cycles
// before the window ends. No resume probes past boundary Kernels-1, so only
// the warmup end and boundaries 1 and 2 are banked, and resuming from the
// furthest of them reproduces the cold run.
func TestUnevenWindowBanksOnlyProbedBoundaries(t *testing.T) {
	spec := genRunSpec(t, config.LLCAdaptive)
	spec.Workloads = []workload.Spec{benchSpec(t, "LUD", 3)}
	spec.MeasureCycles = 2_000
	cold, err := sweep.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cold.KernelBoundaries); n != spec.Kernels {
		t.Fatalf("a %d-cycle window of %d kernels fired %d boundaries, want %d",
			spec.MeasureCycles, spec.Kernels, n, spec.Kernels)
	}

	mgr, store := newManager(t)
	banked, err := sweep.ExecuteSpanned(spec, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualStats(t, cold, banked, "banking run")
	if st := mgr.ManagerStats(); st.Saves != 3 || st.Errors != 0 {
		t.Fatalf("banking run: stats %+v, want 3 saves (warmup, boundaries 1 and 2), 0 errors", st)
	}
	if ss := store.StoreStats(); ss.Blobs != 3 {
		t.Fatalf("store holds %d blobs, want 3", ss.Blobs)
	}

	resumed, err := sweep.ExecuteSpanned(spec, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualStats(t, cold, resumed, "resume from boundary 2")
	if st := mgr.ManagerStats(); st.Hits != 1 || st.Errors != 0 {
		t.Fatalf("resumed run: stats %+v, want 1 hit, 0 errors", st)
	}
}

// TestSpecWithRemovedConfigKeyResumes: a spec serialized while config.Config
// still had its Shards field (a stored record's spec, an older client's POST
// body) decodes with the key ignored, so it derives the checkpoint keys the
// plain spec does and resumes from the blobs banked under them.
func TestSpecWithRemovedConfigKeyResumes(t *testing.T) {
	spec := genRunSpec(t, config.LLCAdaptive)
	mgr, _ := newManager(t)
	banked, err := sweep.ExecuteSpanned(spec, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"Config":{`), []byte(`"Config":{"Shards":4,`), 1)
	if bytes.Equal(old, data) {
		t.Fatal("spec JSON has no Config object to rewrite")
	}
	var decoded sweep.RunSpec
	if err := json.Unmarshal(old, &decoded); err != nil {
		t.Fatalf("spec with a Shards key in its config does not decode: %v", err)
	}
	resumed, err := sweep.ExecuteSpanned(decoded, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualStats(t, banked, resumed, "resume of the decoded spec")
	if st := mgr.ManagerStats(); st.Hits != 1 || st.Errors != 0 {
		t.Fatalf("stats %+v, want 1 hit, 0 errors", st)
	}
}

// TestCorruptBlobSelfHeals covers the satellite requirement: a truncated,
// garbage, stale-format or bit-flipped checkpoint blob is skipped and
// deleted, the run falls back to a shorter prefix (or cold execution) with
// identical statistics, and the blob is re-banked as the run passes the
// boundary again.
func TestCorruptBlobSelfHeals(t *testing.T) {
	flips := 1000
	if testing.Short() {
		flips = 100
	}
	corruptions := []struct {
		name   string
		rounds int // manglings to try, each on the freshly re-banked blob
		mangle func(data []byte, rng *rand.Rand) []byte
	}{
		{"truncated", 1, func(data []byte, _ *rand.Rand) []byte { return data[:len(data)/2] }},
		{"garbage", 1, func([]byte, *rand.Rand) []byte { return bytes.Repeat([]byte("junk"), 64) }},
		// A blob banked by a simulator one container format back (here:
		// today's payload under the v2 preamble) is dropped on the version
		// check, never handed to the state decoder.
		{"format-v2", 1, func(data []byte, _ *rand.Rand) []byte {
			data = bytes.Replace(data, []byte("repro-checkpoint/3\n"), []byte("repro-checkpoint/2\n"), 1)
			return bytes.Replace(data, []byte(`{"version":3,`), []byte(`{"version":2,`), 1)
		}},
		// One flipped bit anywhere after the magic line — header, length,
		// checksum or payload — is caught by the frame, every time.
		{"bit-flip", flips, func(data []byte, rng *rand.Rand) []byte {
			after := bytes.IndexByte(data, '\n') + 1
			bit := rng.IntN(8 * (len(data) - after))
			data[after+bit/8] ^= 1 << (bit % 8)
			return data
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			spec := genRunSpec(t, config.LLCAdaptive)
			cold, err := sweep.Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			mgr, store := newManager(t)
			if _, err := sweep.ExecuteSpanned(spec, mgr, nil); err != nil {
				t.Fatal(err)
			}
			// The furthest boundary's blob is the one mangled on disk.
			key, err := KernelKey(spec, 2)
			if err != nil {
				t.Fatal(err)
			}
			path := blobPath(store.Dir(), key)

			rng := rand.New(rand.NewPCG(18, 3))
			for round := 1; round <= c.rounds; round++ {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("expected blob at %s: %v", path, err)
				}
				if err := os.WriteFile(path, c.mangle(data, rng), 0o644); err != nil {
					t.Fatal(err)
				}

				resumed, err := sweep.ExecuteSpanned(spec, mgr, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualStats(t, cold, resumed, "resume past corrupt blob")
				if st := mgr.ManagerStats(); st.Errors != uint64(round) {
					t.Fatalf("round %d: %d errors counted, want one per corrupt blob", round, st.Errors)
				} else if st.Hits != uint64(round) {
					t.Fatalf("round %d: expected the fallback prefix to hit, got %d hits", round, st.Hits)
				}
				if ss := store.StoreStats(); ss.Corrupt != uint64(round) {
					t.Fatalf("round %d: store counted %d dropped blobs as corrupt", round, ss.Corrupt)
				}
				// Passing boundary 2 again re-banked the healed blob.
				if !store.HasBlob(key) {
					t.Fatalf("round %d: corrupt blob was not re-banked by the resumed run", round)
				}
			}
		})
	}
}

// TestRecordingDisablesCheckpointing: a resumed run cannot re-record its
// skipped prefix, so trace capture forces cold execution.
func TestRecordingDisablesCheckpointing(t *testing.T) {
	spec := genRunSpec(t, config.LLCShared)
	mgr, _ := newManager(t)
	if _, err := sweep.ExecuteSpanned(spec, mgr, nil); err != nil { // populate
		t.Fatal(err)
	}
	rec := spec
	rec.RecordPath = filepath.Join(t.TempDir(), "rec.trace")
	if _, err := sweep.ExecuteSpanned(rec, mgr, nil); err != nil {
		t.Fatal(err)
	}
	if st := mgr.ManagerStats(); st.Hits != 0 {
		t.Fatalf("recording run resumed from a checkpoint (%d hits): the trace is partial", st.Hits)
	}
	// The capture must be complete: replaying it reproduces the recording.
	replay := sweep.RunSpec{
		Key: "replay", TracePath: rec.RecordPath, Config: rec.Config,
		MeasureCycles: rec.MeasureCycles, WarmupCycles: rec.WarmupCycles, Kernels: rec.Kernels,
	}
	want, err := sweep.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweep.Execute(replay)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualStats(t, want, got, "replay of trace captured alongside checkpointing")
}

// TestEncodeDecodeHeader pins the self-describing container: ReadHeader
// parses the preamble without the payload, Decode round-trips the state, and
// malformed inputs are rejected.
func TestEncodeDecodeHeader(t *testing.T) {
	spec := benchSpec(t, "VA", 1)
	cfg := microCfg(config.LLCShared)
	g, err := gpu.New(cfg, workload.MustNewGenerator(spec, cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	g.Warmup(500)
	snap, err := Save(g)
	if err != nil {
		t.Fatal(err)
	}
	snap.Header.Key = "va/test"
	snap.Header.AtKernel = 0
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}

	hdr, err := ReadHeader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != FormatVersion || hdr.SimVersion != simstore.SimVersion ||
		hdr.Key != "va/test" || hdr.Cycle != 500 {
		t.Errorf("header round-trip mismatch: %+v", hdr)
	}

	// The fidelity check is behavioural: a GPU restored from the decoded
	// state must run identically to the original.
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(cfg, workload.MustNewGenerator(spec, cfg, 3), decoded)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualStats(t, g.Run(2_000, 1), restored.Run(2_000, 1), "run after decode+restore")

	if _, err := Decode([]byte("not a checkpoint\n{}\n")); err == nil {
		t.Error("bad magic must be rejected")
	}
	v2 := append([]byte("repro-checkpoint/2\n"), data[bytes.IndexByte(data, '\n')+1:]...)
	if _, err := Decode(v2); err == nil || !strings.Contains(err.Error(), "format v2") {
		t.Errorf("a v2 container must be rejected as a version mismatch, got %v", err)
	}
	if _, err := Decode(data[:len(data)-10]); err == nil {
		t.Error("truncated payload must be rejected")
	}
}

// TestPrefixKeys pins the key derivation semantics: warmup keys ignore
// measure-window knobs but track everything that shapes the warmup; kernel
// keys track the full spec.
func TestPrefixKeys(t *testing.T) {
	base := genRunSpec(t, config.LLCShared)
	wk := func(s sweep.RunSpec) [32]byte {
		k, err := WarmupKey(s)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	same := base
	same.MeasureCycles *= 7
	same.Kernels = 1
	same.Key = "renamed"
	if wk(base) != wk(same) {
		t.Error("warmup key must ignore measurement window, kernel count and naming")
	}

	for name, mutate := range map[string]func(*sweep.RunSpec){
		"seed":   func(s *sweep.RunSpec) { s.Seed++ },
		"warmup": func(s *sweep.RunSpec) { s.WarmupCycles++ },
		"config": func(s *sweep.RunSpec) { s.Config.NumSMs *= 2 },
		"appmodes": func(s *sweep.RunSpec) {
			s.Workloads = append(s.Workloads, s.Workloads[0])
			s.AppModes = []config.LLCMode{config.LLCShared, config.LLCPrivate}
		},
	} {
		mutated := base
		mutate(&mutated)
		if wk(base) == wk(mutated) {
			t.Errorf("warmup key must change with %s", name)
		}
	}

	k1, err := KernelKey(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KernelKey(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("kernel keys must differ per boundary")
	}
	longer := base
	longer.MeasureCycles *= 2
	l1, err := KernelKey(longer, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l1 == k1 {
		t.Error("kernel keys must track the boundary schedule (measure cycles)")
	}
	if wu := wk(base); wu == k1 {
		t.Error("warmup and kernel namespaces must be disjoint")
	}
}
