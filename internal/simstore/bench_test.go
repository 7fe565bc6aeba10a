package simstore

import (
	"testing"

	"repro/internal/sweep"
)

// The store rungs of the measurement ladder, in host time per operation on
// one catalog spec: its fingerprint (canonical encoding and SHA-256), a
// record hit read back from disk and checked (parsed, its statistics
// checksummed, not decoded), and a record written (encoded, written to a
// temporary file, renamed over the previous one, indexed).

func BenchmarkFingerprint(b *testing.B) {
	spec := specFor(b, "MM", 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Fingerprint(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	st, fp, spec := benchStore(b)
	if err := st.Put(fp, "mm", spec, sampleStats(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := st.Get(fp); !ok {
			b.Fatal("the stored record missed")
		}
	}
}

func BenchmarkPut(b *testing.B) {
	st, fp, spec := benchStore(b)
	b.ReportAllocs()
	for b.Loop() {
		if err := st.Put(fp, "mm", spec, sampleStats(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStore opens an empty store and fingerprints the spec the rungs use.
func benchStore(b *testing.B) (*Store, [32]byte, sweep.RunSpec) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	spec := specFor(b, "MM", 1)
	fp, err := Fingerprint(spec)
	if err != nil {
		b.Fatal(err)
	}
	return st, fp, spec
}
