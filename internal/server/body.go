package server

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/server/api"
)

// The two bodies a cached hit is answered with — POST /v1/runs and POST
// /v1/records/lookup — are written here rather than by encoding/json: each
// result's statistics are spliced in as the bytes the store holds (or a
// peer sent), and everything around them is written exactly as
// json.NewEncoder writes the api.RunResponse or api.LookupResponse they
// stand for, trailing newline included. The statistics' checksums go out
// in the api.StatsCRCHeader. json.NewEncoder of an api.RawRunResponse
// writes the same bytes, but it re-validates and compacts every raw
// statistics value on the way out: on 2 vCPUs that made a handler hit
// 78-90 µs against 48-57 µs written here (BenchmarkHandleRunsHit, six
// alternated 2 s pairs), and a lookup answer 53-80 µs against 33-45 µs.
// TestHitBodiesByteIdentical holds the field order written here to
// encoding/json's.
//
// Every JSON answer, these and writeJSON's, is built whole before its
// header goes out, so it declares its Content-Length: a client then reads
// it into one buffer of its length, where a chunked answer (net/http
// chunks any undeclared body longer than its 2 KB write buffer) leaves it
// growing a buffer as the chunks arrive.

// bodies recycles the buffers bodies are built in: a ResponseWriter's
// Write copies or sends what it is given before it returns. A collection
// empties the pool, so each answer is sized before it is built: a buffer
// the pool no longer holds costs one allocation, not a doubling series.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest body buffer recycled; a longer one, from a
// rare huge batch, is left to the collector rather than kept alive.
const maxPooledBody = 1 << 20

// writeRuns answers a POST /v1/runs with results.
func writeRuns(w http.ResponseWriter, results []api.RawRunResult) {
	crcs := make([]byte, 0, 9*len(results))
	for i := range results {
		crcs = appendCRC(crcs, i, results[i].Stats, results[i].StatsCRC)
	}
	buf := bodies.Get().(*[]byte)
	*buf = appendRuns((*buf)[:0], results)
	w.Header().Set(api.StatsCRCHeader, string(crcs))
	writeBody(w, http.StatusOK, buf)
}

// appendRuns appends the body answering results to b after making room for
// all of it: only a string that needs escaping can grow b again.
func appendRuns(b []byte, results []api.RawRunResult) []byte {
	n := len(`{"results":[]}` + "\n")
	for i := range results {
		r := &results[i]
		n += len(`{"key":"","fingerprint":"","cached":false,"status":"","job_id":"","stats":,"error":"","peer":""},`) +
			len(r.Key) + len(r.Fingerprint) + len(r.Status) + len(r.JobID) + len(r.Stats) + len(r.Error) + len(r.Peer)
	}
	b = append(slices.Grow(b, n), `{"results":[`...)
	for i := range results {
		r := &results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if r.Key != "" {
			b = append(appendString(append(b, `"key":`...), r.Key), ',')
		}
		b = appendString(append(b, `"fingerprint":`...), r.Fingerprint)
		b = strconv.AppendBool(append(b, `,"cached":`...), r.Cached)
		b = appendString(append(b, `,"status":`...), r.Status)
		b = appendOmitEmpty(b, `,"job_id":`, r.JobID)
		if len(r.Stats) > 0 {
			b = append(append(b, `,"stats":`...), r.Stats...)
		}
		b = appendOmitEmpty(b, `,"error":`, r.Error)
		b = appendOmitEmpty(b, `,"peer":`, r.Peer)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// writeLookup answers a POST /v1/records/lookup with recs (their Spec is
// not part of a lookup answer).
func writeLookup(w http.ResponseWriter, recs []api.RawRecord) {
	crcs := make([]byte, 0, 9*len(recs))
	for i := range recs {
		crcs = appendCRC(crcs, i, recs[i].Stats, recs[i].StatsCRC)
	}
	buf := bodies.Get().(*[]byte)
	*buf = appendLookup((*buf)[:0], recs)
	w.Header().Set(api.StatsCRCHeader, string(crcs))
	writeBody(w, http.StatusOK, buf)
}

// appendLookup appends the body answering recs to b, sized as appendRuns's.
func appendLookup(b []byte, recs []api.RawRecord) []byte {
	n := len(`{"records":[]}` + "\n")
	for i := range recs {
		n += len(`{"fingerprint":"","key":"","stats":},`) + len(recs[i].Fingerprint) + len(recs[i].Key) + len(recs[i].Stats)
	}
	b = append(slices.Grow(b, n), `{"records":[`...)
	for i := range recs {
		r := &recs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(append(b, `{"fingerprint":`...), r.Fingerprint)
		b = appendOmitEmpty(b, `,"key":`, r.Key)
		b = append(append(append(b, `,"stats":`...), r.Stats...), '}')
	}
	return append(b, "]}\n"...)
}

// writeBody answers code with the JSON body in buf, its length declared,
// and recycles buf.
func writeBody(w http.ResponseWriter, code int, buf *[]byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(code)
	w.Write(*buf)
	if cap(*buf) <= maxPooledBody {
		bodies.Put(buf)
	}
}

// appendCRC appends the i-th entry of an api.StatsCRCHeader value: crc in
// hex if there are statistics, nothing if not.
func appendCRC(b []byte, i int, stats []byte, crc uint32) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	if len(stats) > 0 {
		b = strconv.AppendUint(b, uint64(crc), 16)
	}
	return b
}

// appendOmitEmpty appends a string member tagged omitempty: key (with its
// leading comma and colon) and s, unless s is empty.
func appendOmitEmpty(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendString appends s as encoding/json quotes it. Printable ASCII other
// than the quote, the backslash and the HTML characters encoding/json
// escapes goes as it is; any other string is encoding/json's to quote.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
