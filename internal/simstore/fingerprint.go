// Package simstore provides content-addressed caching of simulation results.
//
// The simulator is deterministic: equal sweep.RunSpec values always produce
// identical gpu.RunStats (the trace-replay golden tests and the sweep
// engine's parallel-vs-serial identity test prove it). That turns every
// completed run into a reusable artifact: fingerprint the spec, store the
// statistics under the fingerprint, and any future request for the same run
// is a cache hit that skips the simulation entirely.
//
// Two pieces implement this. Fingerprint maps a RunSpec to a stable 32-byte
// digest over a canonical encoding — insensitive to field ordering,
// unset-vs-default spelling, and run naming, but sensitive to everything
// that can change the simulated statistics (including the *content* of a
// replayed trace file, and a simulator version salt; see DESIGN.md for the
// invalidation rule). Store is an on-disk, LRU-bounded, corruption-tolerant
// map from fingerprint to a versioned, compact JSON result record with
// atomic writes. A record keeps its statistics as the bytes json.Marshal
// produced for them with their CRC-32C beside them, and a read serves those
// bytes without decoding them: it drops, counts corrupt and deletes a
// record it cannot parse as JSON, one of another version or filed under
// another fingerprint, and one whose statistics differ from their checksum
// in any byte. The spec and key a record carries are informational and not
// verified.
package simstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"

	"repro/internal/sweep"
)

// SchemaVersion versions the canonical fingerprint encoding itself. Bump it
// when the encoding below changes shape (it is mixed into every digest, so a
// bump invalidates all stored results).
const SchemaVersion = 1

// SimVersion is the simulator behaviour salt mixed into every fingerprint.
//
// Invalidation rule: bump this string whenever a change anywhere in the
// simulator alters the statistics produced for some RunSpec — the same class
// of change that requires regenerating the golden trace statistics under
// internal/trace/testdata. Results cached under the old salt then simply
// stop being found, rather than being served stale. Pure refactors,
// performance work and new opt-in features keep the salt (and the golden
// stats) unchanged.
const SimVersion = "repro-sim/2"

// Fingerprint returns the content address of a run: a SHA-256 digest of the
// spec's canonical encoding. Specs that provably produce identical RunStats
// map to the same fingerprint:
//
//   - sweep.RunSpec.Canonical() first erases run naming (Key), side-effect
//     fields (RecordPath) and unset-vs-default differences;
//   - struct fields are encoded name-tagged and name-sorted, so declaration
//     order and added-later zero-valued fields do not shift the digest;
//   - a replayed trace contributes its file *content* digest, not its path,
//     so renaming a trace file preserves hits and editing one changes them.
//
// The error is non-nil only when a trace file named by the spec cannot be
// read. Fingerprints are stable across processes and platforms; golden
// values are pinned in testdata/fingerprints.golden.
func Fingerprint(spec sweep.RunSpec) ([32]byte, error) {
	var scratch [4096]byte
	enc, err := appendSpec(scratch[:0], spec)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(enc), nil
}

// appendSpec appends the digest input of spec to buf: the schema and
// simulator salts, then the canonical encoding of spec.Canonical() with a
// replayed trace's path replaced by its content digest.
func appendSpec(buf []byte, spec sweep.RunSpec) ([]byte, error) {
	c := spec.Canonical()
	if c.TracePath != "" {
		sum, err := fileDigest(c.TracePath)
		if err != nil {
			return nil, fmt.Errorf("simstore: fingerprint trace content: %w", err)
		}
		c.TracePath = "sha256:" + hex.EncodeToString(sum)
	}
	buf = append(buf, "simstore/"...)
	buf = strconv.AppendInt(buf, SchemaVersion, 10)
	buf = append(buf, '|')
	buf = append(buf, SimVersion...)
	buf = append(buf, '|')
	return appendCanonical(buf, reflect.ValueOf(c)), nil
}

// Hex returns the lower-case hex form of a fingerprint (the form used as a
// store filename and in the HTTP API).
func Hex(fp [32]byte) string { return hex.EncodeToString(fp[:]) }

func fileDigest(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// fieldPlan is one exported struct field in canonical (name) order.
type fieldPlan struct {
	name  string
	index int
}

// plans caches each struct type's exported fields sorted by name
// (reflect.Type -> []fieldPlan), so encoding a spec sorts nothing.
var plans sync.Map

func planOf(t reflect.Type) []fieldPlan {
	if p, ok := plans.Load(t); ok {
		return p.([]fieldPlan)
	}
	p := make([]fieldPlan, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			p = append(p, fieldPlan{name: f.Name, index: i})
		}
	}
	sort.Slice(p, func(i, j int) bool { return p[i].name < p[j].name })
	plans.Store(t, p)
	return p
}

// appendCanonical appends a deterministic, self-delimiting encoding of v to
// buf. Struct fields are written sorted by name and zero-valued fields are
// skipped, which is what makes the digest independent of field order and of
// whether a default was left unset or spelled out. The supported kinds are
// exactly those reachable from sweep.RunSpec; anything else is a programming
// error caught by the panic (and by the golden fingerprint test the moment
// such a field is added).
func appendCanonical(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		buf = append(buf, '{')
		for _, f := range planOf(v.Type()) {
			fv := v.Field(f.index)
			if fv.IsZero() {
				continue
			}
			buf = append(buf, f.name...)
			buf = append(buf, '=')
			buf = appendCanonical(buf, fv)
			buf = append(buf, ';')
		}
		return append(buf, '}')
	case reflect.Slice, reflect.Array:
		buf = append(buf, '[')
		for i := 0; i < v.Len(); i++ {
			buf = appendCanonical(buf, v.Index(i))
			buf = append(buf, ',')
		}
		return append(buf, ']')
	case reflect.String:
		return strconv.AppendQuote(buf, v.String())
	case reflect.Bool:
		return strconv.AppendBool(buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(buf, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(buf, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		return strconv.AppendFloat(buf, v.Float(), 'g', -1, 64)
	default:
		panic(fmt.Sprintf("simstore: unsupported kind %s in canonical encoding", v.Kind()))
	}
}
