package jsonplan

import (
	"encoding/json"
	"reflect"
	"strconv"
	"unsafe"
)

// maxDepth bounds the object/array nesting the planned pass follows; deeper
// input goes to json.Unmarshal, whose own limit and error then apply.
const maxDepth = 1000

// presizeMax caps how many elements a scalar slice is sized for up front
// from a count of its commas, so a malformed array cannot make the pass
// allocate more than a few pages before json.Unmarshal rejects it.
const presizeMax = 4096

// Unmarshal parses the JSON-encoded data and stores the result in the value
// pointed to by v, exactly as json.Unmarshal(data, v) does: the same value
// on success, and json.Unmarshal's own result — value and error — whenever
// the planned pass cannot finish (see the package comment).
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer && !rv.IsNil() {
		if p := planOf(rv.Type().Elem()); p != nil {
			d := decoder{data: data}
			if d.document(p, rv.UnsafePointer()) {
				return nil
			}
		}
	}
	return json.Unmarshal(data, v)
}

// decoder is one planned pass over data. Every method returns false the
// moment the input leaves what the pass decodes itself.
type decoder struct {
	data  []byte
	pos   int
	depth int
}

// sliceHeader is the layout of every Go slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// document decodes all of data, one value and trailing whitespace, into the
// p-typed memory at ptr.
func (d *decoder) document(p *plan, ptr unsafe.Pointer) bool {
	return d.value(p, ptr) && d.next() == 0 && d.pos == len(d.data)
}

// next skips JSON whitespace and returns the byte after it, 0 at the end
// (a NUL is never valid between tokens, so 0 fails every caller).
func (d *decoder) next() byte {
	i := d.pos
	for ; i < len(d.data); i++ {
		if c := d.data[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			d.pos = i
			return c
		}
	}
	d.pos = i
	return 0
}

// value decodes the next JSON value into the p-typed memory at ptr.
func (d *decoder) value(p *plan, ptr unsafe.Pointer) bool {
	c := d.next()
	if p.raw {
		// A raw message takes any value, null included, as its bytes.
		start := d.pos
		if !d.skip() {
			return false
		}
		m := (*[]byte)(ptr)
		*m = append((*m)[:0], d.data[start:d.pos]...)
		return true
	}
	if c == 'n' {
		if !d.literal("null") {
			return false
		}
		// null clears pointers, slices and maps and leaves the rest alone.
		switch p.kind {
		case reflect.Pointer:
			*(*unsafe.Pointer)(ptr) = nil
		case reflect.Slice:
			*(*[]struct{})(ptr) = nil
		case reflect.Map:
			reflect.NewAt(p.typ, ptr).Elem().SetZero()
		}
		return true
	}
	switch p.kind {
	case reflect.Struct:
		return c == '{' && d.object(p, ptr)
	case reflect.Pointer:
		pp := (*unsafe.Pointer)(ptr)
		if *pp == nil {
			*pp = reflect.New(p.elem.typ).UnsafePointer()
		}
		return d.value(p.elem, *pp)
	case reflect.Slice:
		return c == '[' && d.slice(p, (*sliceHeader)(ptr))
	case reflect.Array:
		return c == '[' && d.array(p, ptr)
	case reflect.Map:
		return c == '{' && d.mapping(p, ptr)
	case reflect.String:
		s, ok := d.str()
		if ok {
			*(*string)(ptr) = string(s)
		}
		return ok
	case reflect.Bool:
		switch {
		case c == 't' && d.literal("true"):
			*(*bool)(ptr) = true
		case c == 'f' && d.literal("false"):
			*(*bool)(ptr) = false
		default:
			return false
		}
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return d.int(p, ptr)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return d.uint(p, ptr)
	case reflect.Float32, reflect.Float64:
		return d.float(p, ptr)
	}
	return false
}

// enter and leave bracket one level of object/array nesting.
func (d *decoder) enter() bool {
	d.depth++
	d.pos++ // the opening '{' or '['
	return d.depth <= maxDepth
}

func (d *decoder) leave() bool {
	d.depth--
	d.pos++ // the closing '}' or ']'
	return true
}

// object decodes a JSON object into the struct at ptr: each key selects the
// field of that exact name, in whatever order and as often as it comes; a
// key that names no field is skipped.
func (d *decoder) object(p *plan, ptr unsafe.Pointer) bool {
	if !d.enter() {
		return false
	}
	c := d.next()
	if c == '}' {
		return d.leave()
	}
	hint := 0 // encoders write fields in declaration order
	for {
		if c != '"' {
			return false
		}
		key, ok := d.str()
		if !ok || d.next() != ':' {
			return false
		}
		d.pos++
		f := p.field(key, hint)
		switch {
		case f >= 0:
			hint = f + 1
			if !d.value(p.fields[f].plan, unsafe.Add(ptr, p.fields[f].offset)) {
				return false
			}
		case p.folds(key):
			return false
		default:
			if !d.skip() {
				return false
			}
		}
		switch d.next() {
		case ',':
			d.pos++
			c = d.next()
		case '}':
			return d.leave()
		default:
			return false
		}
	}
}

// field returns the index of the field named key, trying hint first, or -1.
func (p *plan) field(key []byte, hint int) int {
	if hint < len(p.fields) && string(key) == p.fields[hint].name {
		return hint
	}
	for i := range p.fields {
		if string(key) == p.fields[i].name {
			return i
		}
	}
	return -1
}

// folds reports whether key matches some field's name case-insensitively,
// which json.Unmarshal honours and the planned pass hands off.
func (p *plan) folds(key []byte) bool {
	for i := range p.fields {
		f := p.fields[i].fold
		if len(f) != len(key) {
			continue
		}
		j := 0
		for ; j < len(key); j++ {
			c := key[j]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != f[j] {
				break
			}
		}
		if j == len(key) {
			return true
		}
	}
	return false
}

// slice decodes a JSON array into a slice the way json.Unmarshal does:
// elements already in the slice are decoded into (merged), the slice grows
// only when full, ends truncated to the array's length, and an empty array
// leaves an empty, non-nil slice.
func (d *decoder) slice(p *plan, h *sliceHeader) bool {
	if !d.enter() {
		return false
	}
	i := 0
	if d.next() != ']' {
		for {
			if i >= h.cap {
				n := 1
				if p.elem.scalar {
					n = d.count()
				}
				reflect.NewAt(p.typ, unsafe.Pointer(h)).Elem().Grow(n)
			}
			if i >= h.len {
				h.len = i + 1
			}
			if !d.value(p.elem, unsafe.Add(h.data, uintptr(i)*p.size)) {
				return false
			}
			i++
			c := d.next()
			if c == ']' {
				break
			}
			if c != ',' {
				return false
			}
			d.pos++
		}
	}
	if i < h.len {
		h.len = i
	}
	if i == 0 {
		reflect.NewAt(p.typ, unsafe.Pointer(h)).Elem().Set(reflect.MakeSlice(p.typ, 0, 0))
	}
	return d.leave()
}

// count returns how many elements the scalar array holds from d.pos on (at
// most presizeMax; 1 when it holds anything but plain scalars), so its
// slice grows once instead of doubling into place.
func (d *decoder) count() int {
	n := 1
	quoted := false
	for _, c := range d.data[d.pos:] {
		switch {
		case quoted:
			quoted = c != '"'
			if c == '\\' {
				return 1
			}
		case c == '"':
			quoted = true
		case c == ',':
			if n++; n == presizeMax {
				return n
			}
		case c == ']':
			return n
		case c == '[' || c == '{':
			return 1
		}
	}
	return 1
}

// array decodes a JSON array into a fixed-size array: surplus elements are
// skipped, missing ones zeroed.
func (d *decoder) array(p *plan, ptr unsafe.Pointer) bool {
	if !d.enter() {
		return false
	}
	i := 0
	if d.next() != ']' {
		for {
			var ok bool
			if i < p.len {
				ok = d.value(p.elem, unsafe.Add(ptr, uintptr(i)*p.size))
			} else {
				ok = d.skip()
			}
			if !ok {
				return false
			}
			i++
			c := d.next()
			if c == ']' {
				break
			}
			if c != ',' {
				return false
			}
			d.pos++
		}
	}
	for ; i < p.len; i++ {
		reflect.NewAt(p.elem.typ, unsafe.Add(ptr, uintptr(i)*p.size)).Elem().SetZero()
	}
	return d.leave()
}

// mapping decodes a JSON object into a map: a nil map is made, each value
// is decoded into a fresh zero element and stored under its parsed key.
func (d *decoder) mapping(p *plan, ptr unsafe.Pointer) bool {
	if !d.enter() {
		return false
	}
	m := reflect.NewAt(p.typ, ptr).Elem()
	if m.IsNil() {
		m.Set(reflect.MakeMap(p.typ))
	}
	c := d.next()
	if c == '}' {
		return d.leave()
	}
	elem := reflect.New(p.elem.typ).Elem()
	key := reflect.New(p.typ.Key()).Elem()
	for {
		if c != '"' {
			return false
		}
		k, ok := d.str()
		if !ok || d.next() != ':' {
			return false
		}
		d.pos++
		elem.SetZero()
		if !d.value(p.elem, elem.Addr().UnsafePointer()) {
			return false
		}
		switch key.Kind() {
		case reflect.String:
			key.SetString(string(k))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			n, err := strconv.ParseInt(unsafeString(k), 10, 64)
			if err != nil || key.OverflowInt(n) {
				return false
			}
			key.SetInt(n)
		default:
			n, err := strconv.ParseUint(unsafeString(k), 10, 64)
			if err != nil || key.OverflowUint(n) {
				return false
			}
			key.SetUint(n)
		}
		m.SetMapIndex(key, elem)
		switch d.next() {
		case ',':
			d.pos++
			c = d.next()
		case '}':
			return d.leave()
		default:
			return false
		}
	}
}

// str consumes the string at d.pos and returns its bytes, if it is plain:
// printable ASCII with no escape (anything else is handed off).
func (d *decoder) str() ([]byte, bool) {
	b := d.data
	if d.pos >= len(b) || b[d.pos] != '"' {
		return nil, false
	}
	start := d.pos + 1
	for i := start; i < len(b); i++ {
		if c := b[i]; !plain[c] {
			if c != '"' {
				return nil, false
			}
			d.pos = i + 1
			return b[start:i], true
		}
	}
	return nil, false
}

// plain marks the bytes a string may hold without a hand-off: printable
// ASCII except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// literal consumes lit (true, false or null) at d.pos.
func (d *decoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// number consumes a number at d.pos, validated against the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (d *decoder) number() (text []byte, ok bool) {
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || b[i]-'0' > 9 {
			return nil, false
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i]-'0' > 9 {
			return nil, false
		}
		i = skipDigits(b, i)
	}
	text = b[d.pos:i]
	d.pos = i
	return text, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

// int decodes an integer-kinded value: strconv.ParseInt's reading of the
// literal, in range for the target's size (json.Unmarshal's rule). A
// fraction or an exponent is a type error there, so it is handed off.
func (d *decoder) int(p *plan, ptr unsafe.Pointer) bool {
	b, i := d.data, d.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	n, end, ok := digits(b, i)
	if !ok {
		return false
	}
	var v int64
	if end-i <= 18 {
		v = int64(n)
		if neg {
			v = -v
		}
	} else {
		var err error
		if v, err = strconv.ParseInt(unsafeString(b[d.pos:end]), 10, 64); err != nil {
			return false
		}
	}
	if bits := p.size * 8; v<<(64-bits)>>(64-bits) != v {
		return false
	}
	d.pos = end
	switch p.size {
	case 1:
		*(*int8)(ptr) = int8(v)
	case 2:
		*(*int16)(ptr) = int16(v)
	case 4:
		*(*int32)(ptr) = int32(v)
	default:
		*(*int64)(ptr) = v
	}
	return true
}

// uint decodes an unsigned value: strconv.ParseUint's reading of the
// literal (no sign), in range for the target's size.
func (d *decoder) uint(p *plan, ptr unsafe.Pointer) bool {
	b := d.data
	n, end, ok := digits(b, d.pos)
	if !ok {
		return false
	}
	if end-d.pos > 19 {
		var err error
		if n, err = strconv.ParseUint(unsafeString(b[d.pos:end]), 10, 64); err != nil {
			return false
		}
	}
	if bits := p.size * 8; n<<(64-bits)>>(64-bits) != n {
		return false
	}
	d.pos = end
	switch p.size {
	case 1:
		*(*uint8)(ptr) = uint8(n)
	case 2:
		*(*uint16)(ptr) = uint16(n)
	case 4:
		*(*uint32)(ptr) = uint32(n)
	default:
		*(*uint64)(ptr) = n
	}
	return true
}

// digits reads the integer part of a JSON number at b[i:] — 0 or
// [1-9][0-9]* — and its value (wrapped past 19 digits), failing when there
// is none or when a fraction or an exponent follows.
func digits(b []byte, i int) (n uint64, end int, ok bool) {
	start := i
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			n = n*10 + uint64(b[i]-'0')
		}
	}
	if i == start || i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, 0, false
	}
	return n, i, true
}

// float decodes a float: strconv.ParseFloat at the target's precision,
// which is what json.Unmarshal calls.
func (d *decoder) float(p *plan, ptr unsafe.Pointer) bool {
	text, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(unsafeString(text), int(p.size*8))
	if err != nil {
		return false
	}
	if p.size == 4 {
		*(*float32)(ptr) = float32(f)
	} else {
		*(*float64)(ptr) = f
	}
	return true
}

// skip consumes and validates one value of any shape (an unknown field's,
// or a raw message's).
func (d *decoder) skip() bool {
	switch c := d.next(); c {
	case '"':
		_, ok := d.str()
		return ok
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	case '{':
		if !d.enter() {
			return false
		}
		if c = d.next(); c == '}' {
			return d.leave()
		}
		for {
			if c != '"' {
				return false
			}
			if _, ok := d.str(); !ok || d.next() != ':' {
				return false
			}
			d.pos++
			if !d.skip() {
				return false
			}
			switch d.next() {
			case ',':
				d.pos++
				c = d.next()
			case '}':
				return d.leave()
			default:
				return false
			}
		}
	case '[':
		if !d.enter() {
			return false
		}
		if d.next() == ']' {
			return d.leave()
		}
		for {
			if !d.skip() {
				return false
			}
			switch d.next() {
			case ',':
				d.pos++
			case ']':
				return d.leave()
			default:
				return false
			}
		}
	}
	_, ok := d.number()
	return ok
}

// unsafeString views b as a string for strconv, which does not retain it.
func unsafeString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
