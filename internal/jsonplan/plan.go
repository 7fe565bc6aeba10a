// Package jsonplan is a drop-in for encoding/json's Unmarshal on the plain
// data types the result store and the simd service exchange: structs of
// numbers, strings, bools, slices, fixed arrays, pointers and
// integer- or string-keyed maps. It plans each Go type once — exported
// fields, their JSON names in declaration order, their offsets — and then
// decodes in one validating pass over the input, with no pre-scan of the
// whole document and no per-value field lookup.
//
// The contract is exactness, not a dialect: when Unmarshal returns nil, the
// target holds exactly what json.Unmarshal would have left in it, starting
// from the same target. Anything the plan does not take is handed to
// json.Unmarshal, which then decides both the value and the error: a type
// the plan does not cover (interfaces, []byte, json.Unmarshaler and
// encoding.TextUnmarshaler types such as time.Time, embedded structs,
// ",string" tags), and within a planned type every syntax or type error,
// every string with an escape, a control byte or a non-ASCII byte, a key
// that matches a field only case-insensitively, and nesting deeper than
// maxDepth. On error the target's contents are unspecified, as they are
// after a failed json.Unmarshal.
//
// The hand-off is safe after a partial pass because the pass performs
// json.Unmarshal's own writes in json.Unmarshal's order (merge into
// existing structs, slice elements and pointees; allocate only nil
// pointers and maps; fresh map values; truncate slices, zero array tails),
// so re-running json.Unmarshal over the partly written target performs the
// same writes again and ends where it would have ended alone.
//
// json.RawMessage is the one json.Unmarshaler the plan takes: its value is
// a validating skip that materialises nothing, and the raw message receives
// a copy of the value's bytes, as RawMessage.UnmarshalJSON makes. That is
// how a body carries a stored result's statistics through a decode without
// decoding them.
package jsonplan

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
)

// plan is how one Go type decodes.
type plan struct {
	kind   reflect.Kind
	typ    reflect.Type
	elem   *plan   // Pointer, Slice, Array, Map: the element's plan
	size   uintptr // Slice, Array: the element size; scalars: the value size
	scalar bool    // a bool, number or string: what a slice is pre-sized for
	raw    bool    // json.RawMessage: the value's bytes, copied
	len    int     // Array: the length
	fields []field // Struct: exported fields in declaration order
}

// field is one decodable struct field.
type field struct {
	name   string // the JSON key that selects it
	fold   string // name upper-cased (ASCII): a key equal to it only case-insensitively is handed off
	offset uintptr
	plan   *plan
}

// plans caches each target type's plan (reflect.Type -> *plan); a nil
// *plan marks a type json.Unmarshal decodes alone.
var plans sync.Map

var (
	unmarshalerType     = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
	numberType          = reflect.TypeFor[json.Number]()
	rawMessageType      = reflect.TypeFor[json.RawMessage]()
)

// planOf returns t's plan, or nil when json.Unmarshal must decode t.
func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p, ok := (&builder{seen: map[reflect.Type]*plan{}}).build(t)
	if !ok {
		p = nil
	}
	plans.Store(t, p)
	return p
}

// builder plans one root type; seen closes cycles of recursive types.
type builder struct {
	seen map[reflect.Type]*plan
}

// build plans t; false means some type reachable from t is not covered, so
// the whole root goes to json.Unmarshal.
func (b *builder) build(t reflect.Type) (*plan, bool) {
	if p, ok := b.seen[t]; ok {
		return p, true
	}
	if t == rawMessageType {
		return &plan{kind: t.Kind(), typ: t, raw: true}, true
	}
	// A pointer has only its element's methods, which the element's own
	// plan refuses (json.RawMessage's it takes).
	if t.Kind() != reflect.Pointer && (t.Implements(unmarshalerType) || reflect.PointerTo(t).Implements(unmarshalerType) ||
		t.Implements(textUnmarshalerType) || reflect.PointerTo(t).Implements(textUnmarshalerType) ||
		t == numberType) {
		return nil, false
	}
	p := &plan{kind: t.Kind(), typ: t, size: t.Size()}
	b.seen[t] = p
	var ok bool
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		p.scalar = true
		return p, true
	case reflect.Pointer:
		p.elem, ok = b.build(t.Elem())
		return p, ok
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 { // base64 strings
			return nil, false
		}
		p.elem, ok = b.build(t.Elem())
		p.size = t.Elem().Size()
		return p, ok
	case reflect.Array:
		p.elem, ok = b.build(t.Elem())
		p.size, p.len = t.Elem().Size(), t.Len()
		return p, ok
	case reflect.Map:
		switch t.Key().Kind() {
		case reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			return nil, false
		}
		if reflect.PointerTo(t.Key()).Implements(textUnmarshalerType) {
			return nil, false
		}
		p.elem, ok = b.build(t.Elem())
		return p, ok
	case reflect.Struct:
		return p, b.fields(p, t)
	}
	return nil, false // interfaces, uintptr, complex, chan, func, unsafe.Pointer
}

// fields plans t's exported fields the way encoding/json names them,
// refusing every case where its choice of field is more than "the one
// field whose name equals the key".
func (b *builder) fields(p *plan, t reflect.Type) bool {
	names := make(map[string]bool, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return false
		}
		if !sf.IsExported() {
			continue
		}
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		for _, o := range strings.Split(opts, ",") {
			if o == "string" {
				return false
			}
		}
		if name == "" {
			name = sf.Name
		}
		if !plainName(name) || names[name] {
			return false
		}
		names[name] = true
		fp, ok := b.build(sf.Type)
		if !ok {
			return false
		}
		p.fields = append(p.fields, field{name: name, fold: strings.ToUpper(name), offset: sf.Offset, plan: fp})
	}
	return true
}

// plainName reports whether encoding/json takes name as it is and folds it
// as ASCII: letters, digits, '_', '-' and '.'.
func plainName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-' || c == '.') {
			return false
		}
	}
	return name != ""
}
