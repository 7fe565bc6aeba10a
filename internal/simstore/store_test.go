package simstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sampleStats exercises the awkward corners of gpu.RunStats serialization:
// float precision, integer-keyed maps, slices and nil-able pointers.
func sampleStats(seed uint64) gpu.RunStats {
	return gpu.RunStats{
		Cycles:              20_000 + seed,
		Instructions:        123_456_789 + seed,
		IPC:                 0.1 + float64(seed)/3.0,
		AppInstructions:     []uint64{seed, seed * 2},
		AppIPC:              []float64{1.5, 2.25},
		LLCPerSliceAccesses: []uint64{1, 2, 3},
		LLCMissRate:         1.0 / 3.0,
		SharingHistogram:    [4]float64{0.25, 0.25, 0.125, 0.375},
		FinalMode:           config.LLCPrivate,
		ModeCycles: map[config.LLCMode]uint64{
			config.LLCShared:  seed,
			config.LLCPrivate: seed * 7,
		},
		KernelBoundaries: []uint64{5_000, 10_000},
	}
}

func specFor(t testing.TB, abbr string, seed int64) sweep.RunSpec {
	t.Helper()
	w, ok := workload.ByAbbr(abbr)
	if !ok {
		t.Fatalf("no workload %s", abbr)
	}
	return sweep.RunSpec{
		Workloads:     []workload.Spec{w},
		Config:        config.Baseline(),
		Seed:          seed,
		MeasureCycles: 10_000,
	}
}

func mustFP(t *testing.T, s sweep.RunSpec) [32]byte {
	t.Helper()
	fp, err := Fingerprint(s)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	spec := specFor(t, "VA", 1)
	fp := mustFP(t, spec)
	if _, ok := st.Get(fp); ok || st.Has(fp) {
		t.Fatal("empty store returned a record")
	}
	stats := sampleStats(3)
	if err := st.Put(fp, "va-run", spec, stats); err != nil {
		t.Fatal(err)
	}
	if !st.Has(fp) {
		t.Fatal("Has misses a stored record")
	}

	hit, ok := st.Get(fp)
	if !ok {
		t.Fatal("stored record not found")
	}
	if hit.Key != "va-run" {
		t.Errorf("key %q, want va-run", hit.Key)
	}
	// A hit is the bytes json.Marshal wrote — this is what lets simd serve a
	// cached response indistinguishable from the original one — and they
	// decode to the statistics put.
	a, _ := json.Marshal(stats)
	if string(a) != string(hit.Stats.JSON) || hit.Stats.CRC != Checksum(a) {
		t.Errorf("stats JSON not byte-identical after round-trip:\n%s\n%s", a, hit.Stats.JSON)
	}
	var got gpu.RunStats
	if err := json.Unmarshal(hit.Stats.JSON, &got); err != nil || !reflect.DeepEqual(got, stats) {
		t.Errorf("stats did not round-trip (%v):\nput %+v\ngot %+v", err, stats, got)
	}

	// A second Open over the same directory must see the record (persistence).
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("reopened store has %d entries, want 1", st2.Len())
	}
	if _, ok := st2.Get(fp); !ok {
		t.Error("record lost across reopen")
	}

	s := st.StoreStats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Errorf("counters = %+v, want 1 hit / 1 miss / 1 put (Has counts neither)", s)
	}
}

func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}

	fpA := mustFP(t, specFor(t, "VA", 1))
	fpB := mustFP(t, specFor(t, "VA", 2))
	fpC := mustFP(t, specFor(t, "VA", 3))
	for i, fp := range [][32]byte{fpA, fpB} {
		if err := st.Put(fp, "", specFor(t, "VA", int64(i+1)), sampleStats(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A so B becomes the least recently used, then insert C.
	if _, ok := st.Get(fpA); !ok {
		t.Fatal("A missing before eviction")
	}
	if err := st.Put(fpC, "", specFor(t, "VA", 3), sampleStats(9)); err != nil {
		t.Fatal(err)
	}

	if _, ok := st.Get(fpB); ok {
		t.Error("LRU record B survived eviction")
	}
	if _, ok := st.Get(fpA); !ok {
		t.Error("recently-used record A was evicted")
	}
	if _, ok := st.Get(fpC); !ok {
		t.Error("new record C missing")
	}
	if st.Len() != 2 {
		t.Errorf("store holds %d entries, want 2", st.Len())
	}
	if got := st.StoreStats().Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// The bound holds on disk too, not just in the index.
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("%d record files on disk, want 2: %v", len(files), files)
	}
}

// TestEvictionRacesGet hammers Get on a hot record while concurrent Puts
// force LRU evictions through the same store (run with -race): an eviction
// must never corrupt a read in flight — every hit returns the exact stats
// that were stored, and a miss is a clean miss, never a half-read record.
func TestEvictionRacesGet(t *testing.T) {
	st, err := Open(t.TempDir(), Options{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	hotSpec := specFor(t, "VA", 1000)
	hotFP := mustFP(t, hotSpec)
	hotStats := sampleStats(77)
	if err := st.Put(hotFP, "hot", hotSpec, hotStats); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(hotStats)

	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			spec := specFor(t, "VA", int64(i))
			if err := st.Put(mustFP(t, spec), "churn", spec, sampleStats(uint64(i))); err != nil {
				errc <- err
				return
			}
		}
	}()

	hits := 0
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		hit, ok := st.Get(hotFP)
		if !ok {
			// Evicted by the churn: legal. Reinstate and keep going.
			if err := st.Put(hotFP, "hot", hotSpec, hotStats); err != nil {
				t.Fatal(err)
			}
			continue
		}
		hits++
		if got := hit.Stats.JSON; string(got) != string(want) {
			t.Fatalf("concurrent eviction corrupted a read:\ngot  %s\nwant %s", got, want)
		}
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if hits == 0 {
		t.Error("reader never hit the hot record; race not exercised")
	}
	if st.Len() > 4 {
		t.Errorf("store holds %d entries, want <= 4", st.Len())
	}
}

func TestStoreCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, "VA", 1)
	fp := mustFP(t, spec)
	if err := st.Put(fp, "", spec, sampleStats(1)); err != nil {
		t.Fatal(err)
	}

	// Truncate the record behind the store's back.
	path := filepath.Join(dir, Hex(fp)[:2], Hex(fp)+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := st.Get(fp); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if got := st.StoreStats().Corrupt; got != 1 {
		t.Errorf("corrupt counter = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt record file not removed")
	}
	// The store recovers: the same fingerprint can be stored again.
	if err := st.Put(fp, "", spec, sampleStats(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(fp); !ok {
		t.Error("store did not recover after corruption")
	}

	// A version-skewed record is likewise a miss, not a misread.
	var rec Record
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Version = RecordVersion + 1
	skewed, _ := json.Marshal(rec)
	if err := os.WriteFile(path, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(fp); ok {
		t.Error("version-skewed record served as a hit")
	}
}

// TestStoreRecordForms: a record file rewritten behind the store's back is
// served only if encoding/json reads in it this store's version, the
// fingerprint it is filed under and statistics that match their checksum;
// anything else is dropped (Corrupt +1, a miss, the file removed). Every
// in-place edit of the statistics' bytes is dropped, whether or not it
// still decodes — the case-insensitive key and the escaped name included,
// which a store that decoded its statistics used to serve. The key and the
// spec are informational: a read skips the spec as JSON, so any edit that
// leaves it JSON is served.
func TestStoreRecordForms(t *testing.T) {
	spec := specFor(t, "VA", 1)
	fp := mustFP(t, spec)
	v1, err := json.MarshalIndent(struct {
		Version     int           `json:"version"`
		Fingerprint string        `json:"fingerprint"`
		Key         string        `json:"key,omitempty"`
		Spec        sweep.RunSpec `json:"spec"`
		Stats       gpu.RunStats  `json:"stats"`
		SavedAtUnix int64         `json:"saved_at_unix"`
	}{1, Hex(fp), "va", spec.Canonical(), sampleStats(1), 1}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		edit   func([]byte) []byte
		served bool
	}{
		// The statistics.
		{"string for a number", replace(`"Cycles":20001,`, `"Cycles":"20001",`), false},
		{"float in an integer field", replace(`"Cycles":20001,`, `"Cycles":20001.5,`), false},
		{"integer overflow", replace(`"Cycles":20001,`, `"Cycles":18446744073709551616,`), false},
		{"stats key matching only case-insensitively", replace(`"Cycles":`, `"CYCLES":`), false},
		{"stats key spelled with an escape", replace(`"Cycles":`, `"\u0043ycles":`), false},
		{"whitespace in the stats", replace(`"stats":{"Cycles":`, `"stats":{ "Cycles":`), false},
		{"stats replaced by null", func(b []byte) []byte {
			i := bytes.Index(b, []byte(`"stats_crc32c":`))
			return fmt.Appendf(b[:i:i], `"stats_crc32c":%d,"stats":null}`, Checksum([]byte("null")))
		}, false},
		{"stats removed", func(b []byte) []byte {
			i := bytes.Index(b, []byte(`,"stats":`))
			return append(b[:i:i], '}')
		}, false},
		{"wrong stats_crc32c", func(b []byte) []byte {
			return replace(`"stats_crc32c":`, `"stats_crc32c":1`)(b)
		}, false},
		// The head.
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, false},
		{"trailing bytes", func(b []byte) []byte { return append(b, "}"...) }, false},
		{"wrong fingerprint", replace(`"fingerprint":"`+Hex(fp)[:1], `"fingerprint":"x`), false},
		{"version 1 record", func([]byte) []byte { return v1 }, false},
		{"key matching only case-insensitively", replace(`"version":2,`, `"VERSION":2,`), true},
		{"version matched case-insensitively and skewed", replace(`"version":2,`, `"version":2,"Version":3,`), false},
		{"fingerprint with an escape", replace(`"fingerprint":"`, `"fingerprint":"\u00`+Hex(fp)[:2]), false},
		{"fingerprint spelled with an escape", replace(`"fingerprint":"`+Hex(fp)[:1], fmt.Sprintf(`"fingerprint":"\u%04x`, Hex(fp)[0])), true},
		// The informational fields.
		{"key with escapes and non-ASCII", replace(`"key":"va"`, `"key":"v\u00e1 \"q\" ☕"`), true},
		{"spec with another seed", replace(`"Seed":1,`, `"Seed":2,`), true},
		{"spec with a type error", replace(`"Seed":1,`, `"Seed":"one",`), true},
		{"spec that is not JSON", replace(`"Seed":1,`, `"Seed":1,,`), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(fp, "va", spec, sampleStats(1)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, Hex(fp)[:2], Hex(fp)+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			edited := c.edit(data)
			if bytes.Equal(edited, data) {
				t.Fatal("the edit changed nothing")
			}
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
			// encoding/json's reading of what a read decodes, and the rule.
			var want recordHead
			valid := json.Unmarshal(edited, &want) == nil && want.Version == RecordVersion && want.Fingerprint == Hex(fp) &&
				(EncodedStats{JSON: want.Stats, CRC: want.StatsCRC}).Intact()
			if valid != c.served {
				t.Fatalf("the rule serves the edited record: %v, the case says %v", valid, c.served)
			}

			got, ok := st.Get(fp)
			corrupt := st.StoreStats().Corrupt
			_, statErr := os.Stat(path)
			switch {
			case c.served && (!ok || corrupt != 0):
				t.Fatalf("dropped (hit %v, corrupt %d)", ok, corrupt)
			case c.served && (got.Key != want.Key || !bytes.Equal(got.Stats.JSON, want.Stats) || got.Stats.CRC != want.StatsCRC):
				t.Errorf("served %q %s\nencoding/json reads %q %s", got.Key, got.Stats.JSON, want.Key, want.Stats)
			case !c.served && (ok || corrupt != 1 || !os.IsNotExist(statErr)):
				t.Errorf("not dropped: hit %v, corrupt %d, file stat %v", ok, corrupt, statErr)
			}
		})
	}
}

// TestStoreDetectsFlippedDigit: one digit of a stored statistic changed in
// place still decodes to a valid RunStats, so only the checksum can tell;
// the read must miss, count the record corrupt and remove its file.
func TestStoreDetectsFlippedDigit(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, "VA", 1)
	fp := mustFP(t, spec)
	if err := st.Put(fp, "va", spec, sampleStats(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, Hex(fp)[:2], Hex(fp)+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"Cycles":20001,`))
	if i < 0 {
		t.Fatal("record holds no Cycles of 20001")
	}
	data[i+len(`"Cycles":`)] = '9'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if hit, ok := st.Get(fp); ok {
		t.Fatalf("the edited record was served: %s", hit.Stats.JSON)
	}
	if got := st.StoreStats().Corrupt; got != 1 {
		t.Errorf("corrupt counter = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("the edited record's file is still there (%v)", err)
	}
}

// replace returns an edit replacing the first old with new.
func replace(old, new string) func([]byte) []byte {
	return func(b []byte) []byte { return bytes.Replace(b, []byte(old), []byte(new), 1) }
}

// TestRecordWithRemovedConfigKeyHits: every record written while
// config.Config still had its Shards field carries a "Shards" key in its
// spec (the field had no omitempty). A read skips the spec and decoding it
// ignores unknown keys, so a store full of such records must keep serving
// them, and the spec in the file must still fingerprint to the address it
// is filed under.
func TestRecordWithRemovedConfigKeyHits(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, "VA", 1)
	fp := mustFP(t, spec)
	stats := sampleStats(3)
	if err := st.Put(fp, "va-run", spec, stats); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, Hex(fp)[:2], Hex(fp)+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"Config":{`), []byte(`"Config":{"Shards":4,`), 1)
	if bytes.Equal(old, data) {
		t.Fatal("record has no spec Config object to rewrite")
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hit, ok := reopened.Get(fp)
	if !ok {
		t.Fatalf("record with a Shards key in its config is a miss (corrupt = %d)", reopened.StoreStats().Corrupt)
	}
	if want, _ := json.Marshal(stats); !bytes.Equal(hit.Stats.JSON, want) {
		t.Errorf("stats changed:\nput %s\ngot %s", want, hit.Stats.JSON)
	}
	var rec Record
	if err := json.Unmarshal(old, &rec); err != nil {
		t.Fatal(err)
	}
	if mustFP(t, rec.Spec) != fp {
		t.Error("the spec in the file no longer fingerprints to the record's address")
	}
}

// TestRecordWithRemovedTraceFieldsHits: testdata/record-before-trace-removal.json
// was written by Store.Put while sweep.RunSpec still had its trace-replay
// fields, so its spec carries them, empty, as every record of that time
// does. Filed under its fingerprint, it must keep hitting with the same
// statistics bytes, and its spec must still fingerprint to its address:
// zero-valued fields never reached the canonical encoding.
func TestRecordWithRemovedTraceFieldsHits(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "record-before-trace-removal.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	var raw struct {
		Spec map[string]json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if have := reflect.TypeOf(sweep.RunSpec{}).NumField(); len(raw.Spec) <= have {
		t.Fatalf("fixture spec has %d keys, RunSpec %d fields: it carries no removed field", len(raw.Spec), have)
	}
	fp := mustFP(t, rec.Spec)
	if Hex(fp) != rec.Fingerprint {
		t.Fatalf("the fixture's spec fingerprints to %s, it is filed under %s", Hex(fp), rec.Fingerprint)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, Hex(fp)[:2], Hex(fp)+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hit, ok := st.Get(fp)
	if !ok {
		t.Fatalf("record with the removed trace fields is a miss (corrupt = %d)", st.StoreStats().Corrupt)
	}
	if !bytes.Equal(hit.Stats.JSON, rec.Stats) || hit.Stats.CRC != rec.StatsCRC {
		t.Errorf("stats changed:\nfile %s\ngot  %s", rec.Stats, hit.Stats.JSON)
	}
}

// TestBlobCountMatchesIndex: the blob count StoreStats reports (kept
// incrementally, so a /metrics scrape does not walk the index) equals a
// recount of the index after every way an entry comes and goes.
func TestBlobCountMatchesIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, step string) {
		t.Helper()
		st.mu.Lock()
		blobs := 0
		for k := range st.index {
			if k.blob {
				blobs++
			}
		}
		st.mu.Unlock()
		if got := st.StoreStats().Blobs; got != blobs {
			t.Errorf("after %s: StoreStats().Blobs = %d, the index holds %d blobs", step, got, blobs)
		}
	}
	blobFP := func(i int) [32]byte { return sha256.Sum256([]byte{byte(i)}) }
	mustPutBlob := func(i int, data string) {
		t.Helper()
		if err := st.PutBlob(blobFP(i), []byte(data)); err != nil {
			t.Fatal(err)
		}
	}

	mustPutBlob(1, "a")
	mustPutBlob(2, "b")
	check(st, "blob puts")
	mustPutBlob(1, "a, longer")
	check(st, "a blob overwrite")
	spec := specFor(t, "VA", 1)
	fp := mustFP(t, spec)
	if err := st.Put(fp, "", spec, sampleStats(1)); err != nil {
		t.Fatal(err)
	}
	check(st, "a record put")
	st.DropBlob(blobFP(1))
	st.DropBlob(blobFP(1))
	check(st, "DropBlob, twice")
	if err := os.WriteFile(filepath.Join(dir, Hex(fp)[:2], Hex(fp)+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(fp); ok {
		t.Fatal("corrupt record served as a hit")
	}
	check(st, "a corrupt-record drop")
	if err := os.Remove(filepath.Join(dir, Hex(blobFP(2))[:2], Hex(blobFP(2))+".ckpt")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetBlob(blobFP(2)); ok {
		t.Fatal("deleted blob served as a hit")
	}
	check(st, "a vanished blob")
	for i := 3; i < 12; i++ {
		mustPutBlob(i, "c")
	}
	if st.StoreStats().Evictions == 0 {
		t.Fatal("no LRU eviction happened")
	}
	check(st, "LRU evictions")
	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(reopened, "a reopen")
}

// TestGetHitsOwnTheirBytes: Get reads every record into one buffer the
// store reuses, so a hit must hold copies. Reading record B into the
// buffer record A was read into leaves A's key and statistics as they
// were read.
func TestGetHitsOwnTheirBytes(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	specA, specB := specFor(t, "VA", 1), specFor(t, "MM", 2)
	fpA, fpB := mustFP(t, specA), mustFP(t, specB)
	if err := st.Put(fpA, "record-a", specA, sampleStats(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(fpB, "record-b", specB, sampleStats(2)); err != nil {
		t.Fatal(err)
	}
	wantA, _ := json.Marshal(sampleStats(1))
	// The first two reads size the buffer for the longer record.
	st.Get(fpA)
	st.Get(fpB)
	a, okA := st.Get(fpA)
	b, okB := st.Get(fpB)
	if !okA || !okB {
		t.Fatalf("stored records missed: a %v, b %v", okA, okB)
	}
	if a.Key != "record-a" || string(a.Stats.JSON) != string(wantA) || !a.Stats.Intact() {
		t.Errorf("record A changed when B was read: key %q, intact %v, stats\n%.200s", a.Key, a.Stats.Intact(), a.Stats.JSON)
	}
	if b.Key != "record-b" || !b.Stats.Intact() {
		t.Errorf("record B read as key %q, intact %v", b.Key, b.Stats.Intact())
	}
}

// TestGetHitAllocs bounds one record hit's allocations: the record's path is
// built once, for the read and the mtime bump both, and nothing else on the
// hit path allocates per call beyond the hit's own copies and the file
// syscalls' arguments.
func TestGetHitAllocs(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, "MM", 1)
	fp := mustFP(t, spec)
	if err := st.Put(fp, "mm", spec, sampleStats(1)); err != nil {
		t.Fatal(err)
	}
	const budget = 12
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := st.Get(fp); !ok {
			t.Fatal("the stored record missed")
		}
	})
	t.Logf("%.0f allocations per hit", allocs)
	if allocs > budget {
		t.Errorf("a record hit allocates %.0f times, budget %d", allocs, budget)
	}
}
