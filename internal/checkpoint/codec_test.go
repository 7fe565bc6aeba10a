package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/wire"
	"repro/internal/workload"
)

// allocBound is how much decoding may allocate for an input of n bytes: the
// decoded State is a few times its wire form (a varint byte becomes an
// eight-byte word), and a forged count is held to the same multiple because
// wire.Reader validates it against the bytes remaining first.
func allocBound(n int) uint64 { return 64*uint64(n) + 256<<10 }

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameAround builds a checkpoint file around an arbitrary payload, laying
// the frame out by hand: the test's own statement of the container format.
func frameAround(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	hdr, err := json.Marshal(Header{Version: FormatVersion})
	if err != nil {
		tb.Fatal(err)
	}
	magic := fmt.Sprintf("repro-checkpoint/%d\n", FormatVersion)
	b := append(append([]byte(magic), hdr...), '\n')
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	sum := crc32.Update(0, crc32.MakeTable(crc32.Castagnoli), b[len(magic):])
	sum = crc32.Update(sum, crc32.MakeTable(crc32.Castagnoli), payload)
	b = binary.LittleEndian.AppendUint32(b, sum)
	return append(b, payload...)
}

// hostileLength is a well-framed snapshot (valid preamble, length and
// checksum) whose payload opens with a count claiming 2^60 elements.
func hostileLength(tb testing.TB) []byte {
	return frameAround(tb, append(wire.AppendUvarint(nil, 1<<60), bytes.Repeat([]byte{0xFF}, 64)...))
}

// FuzzDecode: no input makes Decode panic or allocate beyond a small
// multiple of its size. The checksum stops nearly every mutation at the
// frame, so the bytes behind the preamble are also fed to the state decoder
// directly, as a payload whose checksum happened to match.
func FuzzDecode(f *testing.F) {
	for _, ref := range references {
		blob := ref.blob(f)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add(hostileLength(f))
	f.Add(pinnedBlob(f)) // small enough for the mutator to get somewhere
	f.Add(forgedRecencyBlob(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got := allocated(func() {
			if snap, err := Decode(data); err == nil && snap.Header.Version != FormatVersion {
				t.Errorf("decoded a v%d snapshot", snap.Header.Version)
			}
		}); got > allocBound(len(data)) {
			t.Errorf("Decode of %d bytes allocated %d", len(data), got)
		}
		payload := data
		for i := 0; i < 2; i++ {
			payload = payload[bytes.IndexByte(payload, '\n')+1:]
		}
		payload = payload[min(frameBytes, len(payload)):]
		if got := allocated(func() {
			var st gpu.State
			st.ReadFrom(wire.NewReader(payload))
		}); got > allocBound(len(payload)) {
			t.Errorf("ReadFrom of %d bytes allocated %d", len(payload), got)
		}
	})
}

// TestDecodeRejectsCorruption is the integrity gate on a reference blob:
// every single-bit flip after the magic line and every truncation is an
// error. (The gob+gzip container accepted 29% of such flips: gob stopped
// reading before the gzip trailer, so its CRC was never checked.)
func TestDecodeRejectsCorruption(t *testing.T) {
	blob := references[1].blob(t)
	if _, err := Decode(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(frameAround(t, (&gpu.State{}).AppendTo(nil))); err != nil {
		t.Errorf("a hand-laid frame around an empty state: %v", err)
	}
	if _, err := Decode(hostileLength(t)); err == nil {
		t.Error("a forged element count was accepted")
	}
	after := bytes.IndexByte(blob, '\n') + 1
	rng := rand.New(rand.NewPCG(18, 1))
	for i := 0; i < 1000; i++ {
		bit := rng.IntN(8 * (len(blob) - after))
		blob[after+bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(blob); err == nil {
			t.Errorf("flip of bit %d of byte %d was accepted", bit%8, after+bit/8)
		}
		blob[after+bit/8] ^= 1 << (bit % 8)
	}
	for i := 0; i < 100; i++ {
		if n := rng.IntN(len(blob)); func() error { _, err := Decode(blob[:n]); return err }() == nil {
			t.Errorf("truncation to %d of %d bytes was accepted", n, len(blob))
		}
	}
	if _, err := Decode(append(blob, 0)); err == nil {
		t.Error("a trailing byte was accepted")
	}
}

// TestReferenceBlobBudget holds the format to its size budget: with no
// compressor, each reference snapshot stays within 1.5x of what the gob+gzip
// container (v2) took for the same state.
func TestReferenceBlobBudget(t *testing.T) {
	v2 := []int{178_408, 249_564, 59_471, 174_064}
	for i, ref := range references {
		if n := len(ref.blob(t)); 2*n > 3*v2[i] {
			t.Errorf("%s: %d bytes, over 1.5x the v2 blob's %d", ref, n, v2[i])
		}
	}
}

// wireGolden pins the bytes Encode produces for one fixed snapshot: the
// micro GPU, BP, seed 3, adaptive LLC, 1 500 warm-up cycles, SavedAtUnix
// zeroed. Stores hold these bytes across builds, so a change that moves them
// must bump FormatVersion, and only then update the hash. (A change to what
// the simulator computes moves them too; that one bumps simstore.SimVersion,
// which re-keys every stored blob.)
const wireGolden = "23e12b803c91d46e73c0e945e905a088258d322112821cd424157cfbd597cb6f"

func TestWireFormatStable(t *testing.T) {
	sum := sha256.Sum256(pinnedBlob(t))
	if got := hex.EncodeToString(sum[:]); got != wireGolden {
		t.Errorf("Encode of the pinned snapshot hashes to\n  %s, want\n  %s\nif the wire form changed: bump FormatVersion (stores hold v%d blobs), then update wireGolden",
			got, wireGolden, FormatVersion)
	}
}

// pinnedBlob encodes the snapshot wireGolden pins (a few KB, where the
// reference snapshots are hundreds).
func pinnedBlob(tb testing.TB) []byte {
	tb.Helper()
	cfg := microCfg(config.LLCAdaptive)
	spec, ok := workload.ByAbbr("BP")
	if !ok {
		tb.Fatal("unknown benchmark BP")
	}
	g, err := gpu.New(cfg, workload.MustNewGenerator(spec, cfg, 3))
	if err != nil {
		tb.Fatal(err)
	}
	g.Warmup(1_500)
	return encodeStable(tb, g)
}

// forgedRecencyBlob is the pinned snapshot with two valid lines of one L1
// set given the same recency position: well framed, a payload that parses,
// and a state no cache can be in.
func forgedRecencyBlob(tb testing.TB) []byte {
	tb.Helper()
	cfg := microCfg(config.LLCAdaptive)
	snap, err := Decode(pinnedBlob(tb))
	if err != nil {
		tb.Fatal(err)
	}
	l1 := &snap.State.SMs[0].L1
	lastSet, k := -1, 0
	for i := 0; i < l1.Slots; i++ {
		if l1.Valid[i>>6]>>(i&63)&1 == 0 {
			continue
		}
		if set := i / cfg.L1Ways; set != lastSet {
			lastSet = set
		} else {
			l1.Recency[k] = l1.Recency[k-1]
			blob, err := Encode(snap)
			if err != nil {
				tb.Fatal(err)
			}
			return blob
		}
		k++
	}
	tb.Fatal("no L1 set of the pinned snapshot holds two lines")
	return nil
}

// TestRestoreRejectsForgedRecency: a snapshot whose checksum holds but whose
// recency positions repeat decodes, and is refused on restore.
func TestRestoreRejectsForgedRecency(t *testing.T) {
	snap, err := Decode(forgedRecencyBlob(t))
	if err != nil {
		t.Fatalf("the forged snapshot does not decode: %v", err)
	}
	cfg := microCfg(config.LLCAdaptive)
	spec, _ := workload.ByAbbr("BP")
	if _, err := Restore(cfg, workload.MustNewGenerator(spec, cfg, 3), snap); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Errorf("Restore of repeated recency positions = %v, want a ranking error", err)
	}
}

// TestManagerBytesMatchSaveEncode: there is one path. What Manager.Checkpoint
// banks — on recycled scratch, whatever it held before — is byte for byte
// what Save + Encode produce for the same GPU and header, and what it
// decodes on scratch restores like a fresh Decode.
func TestManagerBytesMatchSaveEncode(t *testing.T) {
	mgr, store := newManager(t)
	var replicated []byte
	mgr.OnSave(func(_ [32]byte, data []byte) { replicated = data })

	// Dirty the scratch with a snapshot of another shape first.
	other := genRunSpec(t, config.LLCPrivate)
	other.Workloads = []workload.Spec{benchSpec(t, "BP", 3), benchSpec(t, "VA", 3)}
	for _, spec := range []sweep.RunSpec{other, genRunSpec(t, config.LLCAdaptive)} {
		prog, _, err := sweep.BuildProgram(spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gpu.New(spec.Config, prog)
		if err != nil {
			t.Fatal(err)
		}
		g.Warmup(spec.WarmupCycles)
		mgr.Checkpoint(spec, g, 0)

		key, err := WarmupKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		banked, ok := store.GetBlob(key)
		if !ok {
			t.Fatalf("%d-app run: nothing banked", len(spec.Workloads))
		}
		snap, err := Save(g)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := ReadHeader(bytes.NewReader(banked))
		if err != nil {
			t.Fatal(err)
		}
		snap.Header = hdr
		direct, err := Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(banked, direct) {
			t.Errorf("%d-app run: Manager.Checkpoint banked %d bytes that differ from Save+Encode's %d", len(spec.Workloads), len(banked), len(direct))
		}
		if !bytes.Equal(replicated, banked) {
			t.Errorf("%d-app run: the OnSave hook saw other bytes than the store", len(spec.Workloads))
		}

		resumed, _, at, ok := mgr.Resume(spec, func() (workload.Program, error) {
			p, _, err := sweep.BuildProgram(spec)
			return p, err
		})
		if !ok || at != 0 {
			t.Fatalf("%d-app run: resume ok=%v at kernel %d", len(spec.Workloads), ok, at)
		}
		fresh, err := resumed.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, snap.State) {
			t.Errorf("%d-app run: a GPU resumed through scratch saves a different State", len(spec.Workloads))
		}
	}
}

// TestManagerScratchIsPerCall drives one manager from several goroutines, as
// the sweep worker pool does: every banked blob must decode to its own run
// (run under -race, this is also the gate on the scratch pool).
func TestManagerScratchIsPerCall(t *testing.T) {
	mgr, store := newManager(t)
	modes := []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive, config.LLCShared}
	var wg sync.WaitGroup
	for i, mode := range modes {
		spec := genRunSpec(t, mode)
		spec.Seed += int64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cold, err := sweep.Execute(spec)
			if err != nil {
				t.Error(err)
				return
			}
			for pass := 0; pass < 2; pass++ { // bank, then resume
				got, err := sweep.ExecuteSpanned(spec, mgr, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(cold, got) {
					t.Errorf("seed %d pass %d: statistics differ from the cold run", spec.Seed, pass)
				}
			}
		}()
	}
	wg.Wait()
	if st := mgr.ManagerStats(); st.Errors != 0 || st.Hits != uint64(len(modes)) {
		t.Errorf("manager stats %+v, want %d hits and no errors", st, len(modes))
	}
	if ss := store.StoreStats(); ss.Corrupt != 0 {
		t.Errorf("%d blobs dropped as corrupt", ss.Corrupt)
	}
}
