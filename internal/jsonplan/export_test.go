package jsonplan

import "reflect"

// Planned reports whether Unmarshal decodes a t itself rather than handing
// it to encoding/json.
func Planned(t reflect.Type) bool { return planOf(t) != nil }

// PlannedPass runs the planned pass alone on data into v (a non-nil pointer
// to a planned type) and reports whether it finished, i.e. whether Unmarshal
// would have returned without calling encoding/json.
func PlannedPass(data []byte, v any) bool {
	rv := reflect.ValueOf(v)
	d := decoder{data: data}
	return d.document(planOf(rv.Type().Elem()), rv.UnsafePointer())
}
