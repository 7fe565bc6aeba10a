package jsonplan_test

import (
	"encoding/json"
	"testing"

	"repro/internal/gpu"
	"repro/internal/jsonplan"
	"repro/internal/simstore"
)

// The decode rung of the measurement ladder: a stored record file as
// Store.Get reads it (compact, ~4.5 KB, its statistics a raw message the
// pass validates and copies) and one run's statistics as a client decodes
// them from a hit (compact), each decoded by jsonplan and, for reference,
// by encoding/json; and the record taken as a raw message, which is the
// validating skip alone.

func BenchmarkUnmarshal(b *testing.B) {
	w := wire(b)
	var rec simstore.Record
	if err := json.Unmarshal(w["record-v2"], &rec); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		into func() any
	}{
		{"record", w["record-v2"], func() any { return new(simstore.Record) }},
		{"stats", rec.Stats, func() any { return new(gpu.RunStats) }},
		{"record-raw", w["record-v2"], func() any { return new(json.RawMessage) }},
	} {
		for _, dec := range []struct {
			name      string
			unmarshal func([]byte, any) error
		}{{"jsonplan", jsonplan.Unmarshal}, {"encoding-json", json.Unmarshal}} {
			b.Run(c.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(c.data)))
				b.ReportAllocs()
				for b.Loop() {
					if err := dec.unmarshal(c.data, c.into()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
