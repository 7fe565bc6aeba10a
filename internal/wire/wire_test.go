package wire

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestRoundTrip writes one of everything and reads it back.
func TestRoundTrip(t *testing.T) {
	col := []uint64{0, 1, 127, 128, 1 << 35, math.MaxUint64}
	ints := []int{0, -1, 1, -64, 64, math.MinInt, math.MaxInt}
	bits := []byte{0xEE, 0xFF, 0x01}

	b := AppendUvarint(nil, 300)
	b = AppendInt(b, -7)
	b = AppendVarint(b, math.MinInt64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendUint64(b, 0x0123456789ABCDEF)
	b = AppendFloat64(b, math.Inf(-1))
	b = AppendFloat64(b, math.Float64frombits(0x7FF8_0000_0000_0001)) // a NaN payload survives
	b = AppendString(b, "xbar")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendUvarint(b, uint64(len(col)))
	b = AppendUvarints(b, col)
	b = AppendInts(b, ints)
	b = append(b, bits...)

	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair did not round-trip")
	}
	if v := r.Uint64(); v != 0x0123456789ABCDEF {
		t.Errorf("Uint64 = %#x", v)
	}
	if v := r.Float64(); !math.IsInf(v, -1) {
		t.Errorf("Float64 = %v", v)
	}
	if v := math.Float64bits(r.Float64()); v != 0x7FF8_0000_0000_0001 {
		t.Errorf("NaN bits = %#x", v)
	}
	if v := r.String(); v != "xbar" {
		t.Errorf("String = %q", v)
	}
	if v := r.Bytes(nil); !slices.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	for i := range r.Count(1) {
		if v := r.Uvarint(); v != col[i] {
			t.Errorf("column entry %d = %d", i, v)
		}
	}
	for i := range ints {
		if v := r.Int(); v != ints[i] {
			t.Errorf("int column entry %d = %d", i, v)
		}
	}
	if v := r.Take(len(bits)); !slices.Equal(v, bits) {
		t.Errorf("Take = %#x", v)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

// TestReaderRejects: every way an input can lie is a sticky error, reads
// after it return zero, and a forged count sizes nothing.
func TestReaderRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		input []byte
		read  func(*Reader)
	}{
		"truncated varint":  {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"overlong varint":   {append(slices.Repeat([]byte{0xFF}, 10), 1), func(r *Reader) { r.Uvarint() }},
		"bool byte":         {[]byte{2}, func(r *Reader) { r.Bool() }},
		"short word":        {[]byte{1, 2, 3}, func(r *Reader) { r.Uint64() }},
		"count past end":    {AppendUvarint(nil, 1<<40), func(r *Reader) { r.Count(1) }},
		"count times size":  {append(AppendUvarint(nil, 3), 0, 0, 0, 0), func(r *Reader) { r.Count(2) }},
		"take past end":     {[]byte{0xFF, 0x03}, func(r *Reader) { r.Take(3) }},
		"string past end":   {append(AppendUvarint(nil, 9), "short"...), func(r *Reader) { _ = r.String() }},
		"derived count":     {[]byte{0, 0, 0}, func(r *Reader) { r.Need(2, 2) }},
		"trailing bytes":    {[]byte{1, 0}, func(r *Reader) { r.Uvarint(); r.Done() }},
		"caller's complain": {[]byte{5}, func(r *Reader) { r.Fail("value %d out of range", r.Uvarint()) }},
	} {
		r := NewReader(tc.input)
		tc.read(r)
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		first := r.Err()
		if v := r.Uvarint(); v != 0 || r.Count(1) != 0 || r.Bool() || len(r.buf) != 0 {
			t.Errorf("%s: reads after the error returned data", name)
		}
		if r.Err() != first || r.Done() != first {
			t.Errorf("%s: the first error did not stick: %v", name, r.Err())
		}
	}

	r := NewReader([]byte{0x7f})
	if v := r.Int(); v != -64 || r.Err() != nil {
		t.Errorf("Int of one byte = %d, %v", v, r.Err())
	}
	r = NewReader(AppendUvarint(nil, 1<<50))
	if n := r.Count(8); n != 0 || !strings.Contains(r.Err().Error(), "exceeds") {
		t.Errorf("a forged count read as %d: %v", n, r.Err())
	}
}

// TestResizeReuses: Resize keeps a large-enough backing array and leaves nil
// nil at zero length.
func TestResizeReuses(t *testing.T) {
	s := make([]int, 2, 8)
	if got := Resize(s, 5); &got[0] != &s[0] || len(got) != 5 {
		t.Error("Resize did not reuse the backing array")
	}
	if got := Resize(s, 9); len(got) != 9 || &got[0] == &s[0] {
		t.Error("Resize did not grow")
	}
	if got := Resize([]int(nil), 0); got != nil {
		t.Error("Resize(nil, 0) must stay nil")
	}
}
