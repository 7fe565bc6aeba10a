package checkpoint

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// reference names one of the four reference snapshots: the full Table-1 GPU
// running a Table-2 benchmark, warmed for the given cycles. MM/private and
// LUD/shared at 8 000 cycles are the benchmark's two GPU workloads; AN and
// VA at 1 000 are the short-warm-up, nearly empty-cache end.
type reference struct {
	abbr   string
	mode   config.LLCMode
	warmup uint64
}

var references = []reference{
	{"MM", config.LLCPrivate, 8_000},
	{"LUD", config.LLCShared, 8_000},
	{"AN", config.LLCAdaptive, 1_000},
	{"VA", config.LLCShared, 1_000},
}

func (ref reference) String() string { return fmt.Sprintf("%s-%s-%d", ref.abbr, ref.mode, ref.warmup) }

const referenceSeed = 1

func (ref reference) config() config.Config {
	cfg := config.Baseline()
	cfg.LLCMode = ref.mode
	return cfg
}

func (ref reference) program(tb testing.TB) workload.Program {
	tb.Helper()
	spec, ok := workload.ByAbbr(ref.abbr)
	if !ok {
		tb.Fatalf("unknown benchmark %s", ref.abbr)
	}
	return workload.MustNewGenerator(spec, ref.config(), referenceSeed)
}

// warm builds the reference GPU and runs its warm-up.
func (ref reference) warm(tb testing.TB) *gpu.GPU {
	tb.Helper()
	g, err := gpu.New(ref.config(), ref.program(tb))
	if err != nil {
		tb.Fatal(err)
	}
	g.Warmup(ref.warmup)
	return g
}

// blob encodes the reference snapshot.
func (ref reference) blob(tb testing.TB) []byte { return encodeStable(tb, ref.warm(tb)) }

// encodeStable snapshots g and encodes it with SavedAtUnix zeroed, so the
// bytes are reproducible.
func encodeStable(tb testing.TB, g *gpu.GPU) []byte {
	tb.Helper()
	snap, err := Save(g)
	if err != nil {
		tb.Fatal(err)
	}
	snap.Header.SavedAtUnix = 0
	blob, err := Encode(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// The ladder's checkpoint rungs (scripts/bench.sh --layers): the four steps
// of one snapshot on the benchmark's two GPU workloads, on recycled scratch
// as Manager.Checkpoint and Resume run them; MB/s is blob bytes.

func BenchmarkSave(b *testing.B) {
	for _, ref := range references[:2] {
		b.Run(ref.String(), func(b *testing.B) {
			g := ref.warm(b)
			var snap Snapshot
			b.SetBytes(int64(len(encodeStable(b, g))))
			b.ReportAllocs()
			for b.Loop() {
				if err := saveInto(g, &snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, ref := range references[:2] {
		b.Run(ref.String(), func(b *testing.B) {
			snap, err := Save(ref.warm(b))
			if err != nil {
				b.Fatal(err)
			}
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				if buf, err = appendSnapshot(buf[:0], snap); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, ref := range references[:2] {
		b.Run(ref.String(), func(b *testing.B) {
			blob := ref.blob(b)
			var snap Snapshot
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for b.Loop() {
				if err := decodeInto(blob, &snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestore is program build + gpu.New + RestoreState, as a resume
// pays them.
func BenchmarkRestore(b *testing.B) {
	for _, ref := range references[:2] {
		b.Run(ref.String(), func(b *testing.B) {
			blob := ref.blob(b)
			snap, err := Decode(blob)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Restore(ref.config(), ref.program(b), snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
