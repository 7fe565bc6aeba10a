package jsonplan_test

import (
	"encoding/json"
	"testing"

	"repro/internal/gpu"
	"repro/internal/jsonplan"
	"repro/internal/simstore"
)

// The decode rung of the measurement ladder: a stored record as Store.Get
// reads it (indented, ~5 KB) and one run's statistics as a cached hit's
// response carries them (compact), each decoded by jsonplan and, for
// reference, by encoding/json.

func BenchmarkUnmarshal(b *testing.B) {
	record := readFile(b, "record-adaptive.json")
	var rec simstore.Record
	if err := json.Unmarshal(record, &rec); err != nil {
		b.Fatal(err)
	}
	stats := mustMarshal(b, rec.Stats)
	for _, c := range []struct {
		name string
		data []byte
		into func() any
	}{
		{"record", record, func() any { return new(simstore.Record) }},
		{"stats", stats, func() any { return new(gpu.RunStats) }},
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
