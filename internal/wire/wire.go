// Package wire is the byte-level vocabulary of the checkpoint state codec:
// append helpers for the handful of primitive encodings the components use,
// and a bounds-checked Reader for the way back.
//
// Integers are varints (unsigned as is, signed zig-zag), floats and the RNG
// register are fixed eight little-endian bytes, bit sets are packed
// little-endian bytes (a component reserves them and sets bits in place;
// Reader.Take hands them back). There are no field tags and no lengths other
// than explicit element counts: the layout is whatever order a component's
// AppendState writes, and any change to it is a checkpoint.FormatVersion
// bump.
//
// The Reader is built for hostile input. Its error is sticky — after the
// first failure every read returns zero, so a decoder is straight-line code
// with one check at the end — and every count is validated against the bytes
// that remain before anything is allocated for it, so a forged length cannot
// make a decoder allocate more than a small multiple of its input.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendInt appends v as a zig-zag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendUint64 appends v as eight little-endian bytes (for words with no
// small-value bias, where a varint would cost ten).
func AppendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendFloat64 appends the IEEE-754 bits of v.
func AppendFloat64(b []byte, v float64) []byte { return AppendUint64(b, math.Float64bits(v)) }

// AppendString appends s behind its length.
func AppendString(b []byte, s string) []byte {
	return append(AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p behind its length.
func AppendBytes(b, p []byte) []byte {
	return append(AppendUvarint(b, uint64(len(p))), p...)
}

// AppendUvarints appends a column of unsigned varints, without a count.
func AppendUvarints(b []byte, vs []uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// AppendInts appends a column of zig-zag varints, without a count.
func AppendInts(b []byte, vs []int) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// BitWords is the number of 64-bit words a set of n bits occupies.
func BitWords(n int) int { return (n + 63) / 64 }

// Drain moves slot i of the calendar cal, whose slots are bit sets as many
// words long as set, into set, and clears the slot.
func Drain(set, cal []uint64, i int) {
	slot := cal[i*len(set):][:len(set)]
	for k, word := range slot {
		set[k] |= word
		slot[k] = 0
	}
}

// Resize returns s with length n, reusing its backing array when that is
// large enough. The elements are whatever the array held: callers overwrite
// all of them.
func Resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// Reader consumes a buffer written with the append helpers.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads from b, which it does not copy.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error the reader met.
func (r *Reader) Err() error { return r.err }

// Fail records an error found by the caller (an out-of-range value, say)
// unless an earlier one is already held.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
		r.buf = nil
	}
}

// Done returns the reader's error, or an error if input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.Fail("wire: %d trailing bytes", len(r.buf))
	}
	return r.err
}

// Take returns the next n bytes, which it does not copy, or nil (and fails)
// if fewer remain.
func (r *Reader) Take(n int) []byte {
	if n < 0 || n > len(r.buf) {
		r.Fail("wire: truncated input (need %d bytes, have %d)", n, len(r.buf))
		return nil
	}
	p := r.buf[:n]
	r.buf = r.buf[n:]
	return p
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("wire: truncated or overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail("wire: truncated or overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a zig-zag varint. A value that does not fit the platform's int
// is an error.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail("wire: varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads one byte, which must be 0 or 1.
func (r *Reader) Bool() bool {
	p := r.Take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.Fail("wire: bool byte %#x", p[0])
	}
	return p[0] == 1
}

// Uint64 reads eight little-endian bytes.
func (r *Reader) Uint64() uint64 {
	p := r.Take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Float64 reads IEEE-754 bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Count reads an element count and validates it: n elements of at least
// minBytes encoded bytes each must fit in what remains. Callers allocate
// only after Count returns, so memory stays proportional to the input.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/minBytes) {
		r.Fail("wire: count %d exceeds the %d bytes remaining", n, len(r.buf))
		return 0
	}
	return int(n)
}

// Need validates a count the caller derived (from a bit set's population,
// say) the way Count validates one it reads.
func (r *Reader) Need(n, minBytes int) bool {
	if n < 0 || n > len(r.buf)/minBytes {
		r.Fail("wire: %d elements exceed the %d bytes remaining", n, len(r.buf))
		return false
	}
	return true
}

// Bytes reads a length-prefixed byte string into dst's backing array.
func (r *Reader) Bytes(dst []byte) []byte {
	return append(dst[:0], r.Take(r.Count(1))...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Take(r.Count(1))) }
