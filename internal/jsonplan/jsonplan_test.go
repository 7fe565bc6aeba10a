package jsonplan_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/jsonplan"
	"repro/internal/obs"
	"repro/internal/server/api"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// target is one type the differential checks decode into: new returns a
// zero value, filled a deep copy of one already holding an unrelated decode
// (so merge, truncation and null-clearing semantics show).
type target struct {
	name   string
	new    func() any
	filled func() any
}

func targetOf[T any](t testing.TB, name string, fill []byte) target {
	var tmpl T
	if err := json.Unmarshal(fill, &tmpl); err != nil {
		t.Fatalf("%s fill: %v", name, err)
	}
	return target{
		name: name,
		new:  func() any { return new(T) },
		filled: func() any {
			v := new(T)
			deepCopy(reflect.ValueOf(v).Elem(), reflect.ValueOf(tmpl))
			return v
		},
	}
}

// deepCopy copies src into the settable dst sharing no memory, slices with
// their capacity and the elements past their length (which encoding/json
// decodes into when it re-extends a slice).
func deepCopy(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Pointer:
		if !src.IsNil() {
			dst.Set(reflect.New(src.Type().Elem()))
			deepCopy(dst.Elem(), src.Elem())
		}
	case reflect.Slice:
		if !src.IsNil() {
			dst.Set(reflect.MakeSlice(src.Type(), src.Len(), src.Cap()))
			full, dfull := src.Slice(0, src.Cap()), dst.Slice(0, src.Cap())
			for i := 0; i < src.Cap(); i++ {
				deepCopy(dfull.Index(i), full.Index(i))
			}
		}
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			deepCopy(dst.Index(i), src.Index(i))
		}
	case reflect.Map:
		if !src.IsNil() {
			dst.Set(reflect.MakeMapWithSize(src.Type(), src.Len()))
			for it := src.MapRange(); it.Next(); {
				v := reflect.New(src.Type().Elem()).Elem()
				deepCopy(v, it.Value())
				dst.SetMapIndex(it.Key(), v)
			}
		}
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			if dst.Field(i).CanSet() {
				deepCopy(dst.Field(i), src.Field(i))
			}
		}
	default:
		dst.Set(src)
	}
}

// kitchen covers the kinds the repository's wire types do not: small and
// unsigned integers, float32, fixed arrays, pointer chains, string- and
// uint-keyed maps with struct values, named strings, skipped fields.
type kitchen struct {
	I8      int8
	U16     uint16  `json:"u16"`
	F32     float32 `json:"f32,omitempty"`
	Arr     [2]int  `json:"arr"`
	PP      **inner `json:"pp"`
	ByName  map[string]*inner
	ByUint  map[uint8]mode
	Nested  [][]int32
	Modes   []mode
	Raw     json.RawMessage
	RawP    *json.RawMessage
	Raws    map[string]json.RawMessage
	Skipped string `json:"-"`
	hidden  int
}

type inner struct {
	A int
	B []string
}

type mode string

func readFile(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recordV1 is the layout of the fixture records (simstore.RecordVersion 1,
// indented, the statistics decoded): a spec and its statistics to build
// the bodies from, and a large document of both to decode.
type recordV1 struct {
	Version     int           `json:"version"`
	Fingerprint string        `json:"fingerprint"`
	Key         string        `json:"key,omitempty"`
	Spec        sweep.RunSpec `json:"spec"`
	Stats       gpu.RunStats  `json:"stats"`
	SavedAtUnix int64         `json:"saved_at_unix"`
}

// wire returns one encoding of each simd body the decoder serves, and of a
// record file as the store writes it, built from the adaptive record.
func wire(t testing.TB) map[string][]byte {
	var rec recordV1
	if err := json.Unmarshal(readFile(t, "record-adaptive.json"), &rec); err != nil {
		t.Fatal(err)
	}
	spec := api.FromRunSpec(rec.Spec)
	stats := mustMarshal(t, rec.Stats)
	stored := api.StoredRecord{Fingerprint: rec.Fingerprint, Key: rec.Key, Stats: rec.Stats}
	replica := api.RawRecord{Fingerprint: rec.Fingerprint, Key: rec.Key, Spec: spec, StatsCRC: simstore.Checksum(stats), Stats: stats}
	return map[string][]byte{
		"record-v2": mustMarshal(t, simstore.Record{
			Version: simstore.RecordVersion, Fingerprint: rec.Fingerprint, Key: rec.Key, Spec: rec.Spec,
			SavedAtUnix: rec.SavedAtUnix, StatsCRC: simstore.Checksum(stats), Stats: stats,
		}),
		"run-request":       mustMarshal(t, api.RunRequest{Specs: []api.Spec{spec, {Benchmarks: []string{"VA"}, Mode: "private", MeasureCycles: 2000}}}),
		"bare-spec":         mustMarshal(t, api.Spec{Key: "va", Benchmarks: []string{"VA", "MM"}, AppModes: []string{"shared", "private"}, Seed: 7, MeasureCycles: 1000}),
		"run-response":      mustMarshal(t, api.RunResponse{Results: []api.RunResult{{Key: rec.Key, Fingerprint: rec.Fingerprint, Cached: true, Status: api.StatusDone, Stats: &rec.Stats}, {Fingerprint: "ab", Status: api.StatusQueued, JobID: "jx1-2"}}}),
		"lookup-request":    mustMarshal(t, api.LookupRequest{Fingerprints: []string{rec.Fingerprint, "00"}}),
		"lookup-response":   mustMarshal(t, api.LookupResponse{Records: []api.StoredRecord{stored}}),
		"replicate-request": mustMarshal(t, api.ReplicateRequest{Records: []api.RawRecord{replica}}),
		"job-status":        mustMarshal(t, api.JobStatus{ID: "j1", Status: api.StatusDone, Fingerprint: rec.Fingerprint, Stats: &rec.Stats, DurationMs: 12, Peer: "http://127.0.0.1:8404"}),
		"error":             mustMarshal(t, api.Error{Error: "spec 0: unknown benchmark"}),
	}
}

// targets lists every type the checks decode into, each filled from a
// different body than it is usually handed.
func targets(t testing.TB) []target {
	w := wire(t)
	kitchenFill := []byte(`{"I8":-3,"u16":9,"f32":1.5,"arr":[4,5],"pp":{"A":1,"B":["x","y","z"]},
		"ByName":{"k":{"A":2},"n":null},"ByUint":{"1":"a","2":"b"},"Nested":[[1,2],[3]],"Modes":["m","n","o"],
		"Raw":{"a":[1,2,3,4,5,6,7,8]},"RawP":[true],"Raws":{"x":"y"}}`)
	return []target{
		targetOf[recordV1](t, "recordV1", readFile(t, "record-multiprogram.json")),
		targetOf[simstore.Record](t, "Record", w["record-v2"]),
		targetOf[gpu.RunStats](t, "RunStats", mustMarshal(t, sampleStats())),
		targetOf[api.RunRequest](t, "RunRequest", w["run-request"]),
		targetOf[api.Spec](t, "Spec", w["bare-spec"]),
		targetOf[api.RunResponse](t, "RunResponse", w["run-response"]),
		targetOf[api.RawRunResponse](t, "RawRunResponse", w["run-response"]),
		targetOf[api.LookupRequest](t, "LookupRequest", w["lookup-request"]),
		targetOf[api.LookupResponse](t, "LookupResponse", w["lookup-response"]),
		targetOf[api.RawLookupResponse](t, "RawLookupResponse", w["replicate-request"]),
		targetOf[api.RawRecord](t, "RawRecord", w["record-v2"]),
		targetOf[api.JobStatus](t, "JobStatus", w["job-status"]),
		targetOf[api.Error](t, "Error", w["error"]),
		targetOf[json.RawMessage](t, "RawMessage", w["error"]),
		targetOf[kitchen](t, "kitchen", kitchenFill),
	}
}

func sampleStats() gpu.RunStats {
	return gpu.RunStats{
		Cycles:              9,
		AppInstructions:     []uint64{1, 2, 3, 4},
		AppIPC:              []float64{0.5},
		LLCPerSliceAccesses: []uint64{7, 7, 7, 7, 7, 7, 7, 7, 7},
		SharingHistogram:    [4]float64{1, 2, 3, 4},
		ModeCycles:          map[config.LLCMode]uint64{config.LLCPrivate: 3},
		Controller:          &core.Stats{ProfileWindows: 3},
		LastPrediction:      &core.Prediction{SharedMissRate: 0.25},
	}
}

// agree checks one input against encoding/json from the target's zero and
// filled states: a nil error means encoding/json also succeeds with a
// deeply equal value, a non-nil one is encoding/json's own error string.
func agree(t *testing.T, data []byte, tg target) {
	t.Helper()
	for _, start := range []struct {
		name string
		new  func() any
	}{{"zero", tg.new}, {"filled", tg.filled}} {
		got, want := start.new(), start.new()
		gotErr, wantErr := jsonplan.Unmarshal(data, got), json.Unmarshal(data, want)
		switch {
		case gotErr == nil && wantErr != nil:
			t.Errorf("%s/%s: jsonplan succeeded where encoding/json failed (%v) on %.200q", tg.name, start.name, wantErr, data)
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%s/%s: decoded value differs from encoding/json's on %.200q:\n got %+v\nwant %+v", tg.name, start.name, data, got, want)
		case gotErr != nil && (wantErr == nil || gotErr.Error() != wantErr.Error()):
			t.Errorf("%s/%s: error %q, encoding/json says %v on %.200q", tg.name, start.name, gotErr, wantErr, data)
		}
	}
}

// edit returns data with the first old replaced by new, failing the test if
// data holds no old (the fixture changed under the case).
func edit(t testing.TB, data []byte, old, new string) []byte {
	t.Helper()
	if !strings.Contains(string(data), old) {
		t.Fatalf("fixture holds no %q", old)
	}
	return []byte(strings.Replace(string(data), old, new, 1))
}

// edgeCases are inputs at every boundary of the planned pass: what it
// decodes itself, and each thing it hands to encoding/json.
func edgeCases(t testing.TB) map[string][]byte {
	rec := readFile(t, "record-adaptive.json")
	cases := map[string][]byte{
		"record":                      rec,
		"record-multiprogram":         readFile(t, "record-multiprogram.json"),
		"record-compact":              mustMarshal(t, json.RawMessage(rec)),
		"string-for-number":           edit(t, rec, `"Cycles": 4000,`, `"Cycles": "4000",`),
		"float-in-integer":            edit(t, rec, `"Cycles": 4000,`, `"Cycles": 4000.5,`),
		"exponent-in-integer":         edit(t, rec, `"Cycles": 4000,`, `"Cycles": 4e3,`),
		"integer-overflow":            edit(t, rec, `"Cycles": 4000,`, `"Cycles": 18446744073709551616,`),
		"integer-max":                 edit(t, rec, `"Cycles": 4000,`, `"Cycles": 18446744073709551615,`),
		"negative-unsigned":           edit(t, rec, `"Cycles": 4000,`, `"Cycles": -1,`),
		"negative-zero-unsigned":      edit(t, rec, `"Cycles": 4000,`, `"Cycles": -0,`),
		"int-min":                     edit(t, rec, `"Seed": 1,`, `"Seed": -9223372036854775808,`),
		"int-overflow":                edit(t, rec, `"Seed": 1,`, `"Seed": 9223372036854775808,`),
		"int-19-digits":               edit(t, rec, `"Seed": 1,`, `"Seed": -1234567890123456789,`),
		"float-overflow":              edit(t, rec, `"Seed": 1,`, `"Seed": 1,"IPC": 1e400,`),
		"float-underflow":             edit(t, rec, `"Seed": 1,`, `"Seed": 1,"IPC": 1e-400,`),
		"leading-zero":                edit(t, rec, `"Seed": 1,`, `"Seed": 01,`),
		"bare-minus":                  edit(t, rec, `"Seed": 1,`, `"Seed": -,`),
		"dangling-fraction":           edit(t, rec, `"Seed": 1,`, `"Seed": 1.,`),
		"truncated":                   rec[:len(rec)/2],
		"trailing-bytes":              append(append([]byte{}, rec...), "x"...),
		"trailing-object":             append(append([]byte{}, rec...), "{}"...),
		"trailing-whitespace":         append(append([]byte{}, rec...), " \t\r\n"...),
		"case-insensitive-key":        edit(t, rec, `"version"`, `"VERSION"`),
		"case-insensitive-nested-key": edit(t, rec, `"Cycles"`, `"cycles"`),
		"escaped-key-value":           edit(t, rec, `"key": "mm-adaptive"`, `"key": "m\u00e9 \"x\"\\ \/"`),
		"non-ascii-value":             edit(t, rec, `"key": "mm-adaptive"`, `"key": "café ☕"`),
		"invalid-utf8-value":          edit(t, rec, `"key": "mm-adaptive"`, "\"key\": \"a\xff\xfeb\""),
		"control-byte-in-string":      edit(t, rec, `"key": "mm-adaptive"`, "\"key\": \"a\tb\""),
		"escaped-unknown-key":         edit(t, rec, `"version"`, `"v\u00e9": "\n", "version"`),
		"removed-config-key":          edit(t, rec, `"Config": {`, `"Config": {"Shards": 4,`),
		"unknown-nested-value":        edit(t, rec, `"Config": {`, `"Config": {"Old": {"a": [1, {"b": null}, true, false, "s", -2.5e-3]},`),
		"bad-unknown-value":           edit(t, rec, `"Config": {`, `"Config": {"Old": [1 2],`),
		"duplicate-key":               edit(t, rec, `"Cycles": 4000,`, `"Cycles": 1, "Cycles": 4000,`),
		"null-stats":                  edit(t, rec, `"stats": {`, `"stats": null, "x": {`),
		"null-pointer-and-map":        edit(t, rec, `"ModeCycles": {`, `"Controller": null, "ModeCycles": null, "y": {`),
		"null-scalars":                edit(t, rec, `"Cycles": 4000,`, `"Cycles": null, "IPC": null, "FinalMode": null, "SharingHistogram": null,`),
		"empty-slices":                edit(t, rec, `"Cycles": 4000,`, `"Cycles": 4000, "AppIPC": [], "KernelBoundaries": [ ],`),
		"short-fixed-array":           edit(t, rec, `"Cycles": 4000,`, `"Cycles": 4000, "SharingHistogram": [0.5],`),
		"long-fixed-array":            edit(t, rec, `"Cycles": 4000,`, `"Cycles": 4000, "SharingHistogram": [1, 2, 3, 4, 5, [6], {"7": 8}],`),
		"map-key-forms":               edit(t, rec, `"ModeCycles": {`, `"ModeCycles": {"+1": 3, "007": 2, "-0": 9,`),
		"map-key-not-integer":         edit(t, rec, `"ModeCycles": {`, `"ModeCycles": {"x": 3,`),
		"map-key-overflow":            edit(t, rec, `"ModeCycles": {`, `"ModeCycles": {"99999999999999999999": 3,`),
		"object-for-array":            edit(t, rec, `"AppIPC": [`, `"AppIPC": {}, "z": [`),
		"bool-for-number":             edit(t, rec, `"Cycles": 4000,`, `"Cycles": true,`),
		"number-for-bool":             edit(t, rec, `"Checkpoint": false`, `"Checkpoint": 0`),
		"literal-typo":                edit(t, rec, `"Checkpoint": false`, `"Checkpoint": fals`),
		"missing-colon":               edit(t, rec, `"version": 1`, `"version" 1`),
		"missing-comma":               edit(t, rec, `"version": 1,`, `"version": 1`),
		"trailing-comma":              edit(t, rec, `"version": 1,`, `"version": 1,,`),
		"array-for-record":            []byte(`[1, 2]`),
		"null-document":               []byte(`null`),
		"empty-object":                []byte(` {} `),
		"empty-input":                 nil,
		"whitespace-only":             []byte(" \n"),
		"nul-byte":                    []byte("{}\x00"),
		"deep-unknown":                []byte(`{"deep": ` + strings.Repeat("[", 1200) + strings.Repeat("]", 1200) + `}`),
		"too-deep":                    []byte(`{"deep": ` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`),
		"kitchen": []byte(`{"I8":-128,"u16":65535,"f32":3.4e38,"arr":[1],"pp":{"A":5,"B":[]},"ByName":{"a":{"B":["q"]},"c":{"A":3},"b":null},
			"ByUint":{"255":"z"},"Nested":[[],[7,8,9],null],"Modes":[],"Skipped":"no","hidden":1,"-":2}`),
		"kitchen-overflow-int8":   []byte(`{"I8":128}`),
		"kitchen-overflow-uint16": []byte(`{"u16":65536}`),
		"kitchen-overflow-f32":    []byte(`{"f32":3.5e38}`),
		"kitchen-null-chain":      []byte(`{"pp":null}`),
		"kitchen-uint-key-range":  []byte(`{"ByUint":{"256":"z"}}`),
		"kitchen-raw-forms":       []byte(` {"Raw": [ 1 , {"a" :null} ] ,"RawP":null,"Raws":{"n":null,"s":"v","e":{ },"f":-0.5e+3}} `),
		"kitchen-raw-pointer":     []byte(`{"RawP":{"x":[]},"Raw":"s"}`),
		"kitchen-raw-null":        []byte(`{"Raw":null}`),
		"kitchen-raw-escaped":     []byte(`{"Raw":"\u00e9\n"}`),
		"kitchen-raw-bad":         []byte(`{"Raw":[1,]}`),
		"kitchen-raw-missing":     []byte(`{"Raw":}`),
		"raw-stats-whitespace":    edit(t, wire(t)["record-v2"], `"stats":{`, `"stats": { `),
	}
	for name, body := range wire(t) {
		cases[name] = body
	}
	return cases
}

func TestMatchesEncodingJSON(t *testing.T) {
	tgs := targets(t)
	for name, data := range edgeCases(t) {
		t.Run(name, func(t *testing.T) {
			for _, tg := range tgs {
				agree(t, data, tg)
			}
		})
	}
}

// TestPlannedPassServesTheHitPath: the bodies a cached hit decodes are taken
// by the planned pass itself, not handed to encoding/json (which would keep
// every result right and lose the point).
func TestPlannedPassServesTheHitPath(t *testing.T) {
	w := wire(t)
	for _, c := range []struct {
		name string
		data []byte
		into any
	}{
		{"record", w["record-v2"], new(simstore.Record)},
		{"record-v1", readFile(t, "record-adaptive.json"), new(recordV1)},
		{"record-multiprogram-v1", readFile(t, "record-multiprogram.json"), new(recordV1)},
		{"run-request", w["run-request"], new(api.RunRequest)},
		{"bare-spec", w["bare-spec"], new(api.Spec)},
		{"bare-spec-as-request", w["bare-spec"], new(api.RunRequest)},
		{"run-response", w["run-response"], new(api.RunResponse)},
		{"run-response-raw", w["run-response"], new(api.RawRunResponse)},
		{"lookup-request", w["lookup-request"], new(api.LookupRequest)},
		{"lookup-response", w["lookup-response"], new(api.LookupResponse)},
		{"lookup-response-raw", w["lookup-response"], new(api.RawLookupResponse)},
		{"job-status", w["job-status"], new(api.JobStatus)},
		{"error", w["error"], new(api.Error)},
	} {
		if !jsonplan.PlannedPass(c.data, c.into) {
			t.Errorf("%s: the planned pass handed the body to encoding/json", c.name)
		}
	}
}

// textKey is a map key encoding/json decodes through UnmarshalText.
type textKey string

func (k *textKey) UnmarshalText(b []byte) error { *k = textKey(b); return nil }

// selfDecoding decodes itself.
type selfDecoding struct{ N int }

func (s *selfDecoding) UnmarshalJSON([]byte) error { return nil }

// TestFallbackTypes lists the types Unmarshal hands to encoding/json whole,
// and the repository types it plans.
func TestFallbackTypes(t *testing.T) {
	type embedded struct{ inner }
	type quoted struct {
		N int `json:",string"`
	}
	duplicate := reflect.New(reflect.StructOf([]reflect.StructField{ // encoding/json drops both
		{Name: "A", Type: reflect.TypeFor[int](), Tag: `json:"x"`},
		{Name: "B", Type: reflect.TypeFor[int](), Tag: `json:"x"`},
	})).Elem().Interface()
	type oddName struct {
		A int `json:"a b"`
	}
	type holdsSelfDecoding struct{ S []selfDecoding }
	fallback := []any{
		[]byte(nil),          // base64 strings
		any(nil),             // interfaces
		map[string]any(nil),  //
		time.Time{},          // json.Unmarshaler, encoding.TextUnmarshaler
		json.Number(""),      // numbers kept as text
		selfDecoding{},       // json.Unmarshaler
		holdsSelfDecoding{},  // ... anywhere inside
		map[textKey]int(nil), // encoding.TextUnmarshaler keys
		map[[2]int]int(nil),  // keys encoding/json rejects
		embedded{},           // promoted fields
		quoted{},             // ,string
		duplicate,
		oddName{},              // names outside [A-Za-z0-9_.-]
		uintptr(0),             //
		complex128(0),          //
		make(chan int),         //
		func() {},              //
		api.ReplicateRequest{}, // ReplicaBlob.Data is []byte
		api.JobTimeline{},      // obs.SpanJSON.Attrs is map[string]any
		obs.SpanJSON{},         //
	}
	for _, v := range fallback {
		var typ reflect.Type
		if v == nil {
			typ = reflect.TypeFor[any]()
		} else {
			typ = reflect.TypeOf(v)
		}
		if jsonplan.Planned(typ) {
			t.Errorf("%v is planned; it must go to encoding/json", typ)
		}
	}
	planned := []any{
		simstore.Record{}, gpu.RunStats{}, api.RunRequest{}, api.Spec{}, api.RunResponse{},
		api.LookupRequest{}, api.LookupResponse{}, api.JobStatus{}, api.Error{}, api.Health{},
		api.MembershipView{}, api.ReplicateResponse{}, kitchen{},
		json.RawMessage(nil), api.RawRunResponse{}, api.RawLookupResponse{}, api.RawRecord{},
	}
	for _, v := range planned {
		if typ := reflect.TypeOf(v); !jsonplan.Planned(typ) {
			t.Errorf("%v falls back to encoding/json; it should be planned", typ)
		}
	}
}

// TestNonPointerTargets: what is not a non-nil pointer is encoding/json's
// to reject.
func TestNonPointerTargets(t *testing.T) {
	var nilRec *simstore.Record
	for _, v := range []any{nil, simstore.Record{}, nilRec} {
		got, want := jsonplan.Unmarshal([]byte(`{}`), v), json.Unmarshal([]byte(`{}`), v)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("Unmarshal into %T: %v, encoding/json says %v", v, got, want)
		}
	}
}

// FuzzUnmarshal: on any input, for every target type, from a zero and from
// a filled target, jsonplan.Unmarshal agrees with json.Unmarshal — the same
// value when it succeeds, json.Unmarshal's error string when it does not.
func FuzzUnmarshal(f *testing.F) {
	for _, data := range edgeCases(f) {
		if len(data) <= 8<<10 { // the nesting cases are for the unit test; mutating them is slow
			f.Add(data)
		}
	}
	tgs := targets(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range tgs {
			agree(t, data, tg)
		}
	})
}
