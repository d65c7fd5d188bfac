package raftbase

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestStateFootprint pins what a live state's header and a queued message
// cost in bytes, with counts rather than clocks: a frontier state is one
// State header, its record (four bytes a word) and one packedMsg per message
// in flight. Before the state became a header and a record, State was 640
// bytes of slice headers and packedMsg 48 (an entries slice and the
// operands).
func TestStateFootprint(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got > 144 {
		t.Errorf("sizeof(State) = %d, want <= 144", got)
	}
	if got := unsafe.Sizeof(packedMsg{}); got > 24 {
		t.Errorf("sizeof(packedMsg) = %d, want <= 24", got)
	}
	t.Logf("State %d B, packedMsg %d B, Msg %d B", unsafe.Sizeof(State{}), unsafe.Sizeof(packedMsg{}), unsafe.Sizeof(Msg{}))
}

// TestStateHoldsNoPointers: every array a State owns — its record and its
// message array — has an element type without pointers, so a frontier of
// states gives the collector nothing to trace but the header, and the only
// header fields that carry a pointer are the two cold ones named here.
func TestStateHoldsNoPointers(t *testing.T) {
	allowed := map[string]bool{"Viol": true, "LastRead": true}
	var check func(rt reflect.Type, path string)
	check = func(rt reflect.Type, path string) {
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			name := path + f.Name
			switch {
			case f.Type.Kind() == reflect.Slice:
				if hasPointers(f.Type.Elem()) {
					t.Errorf("%s is an array of %s, which holds pointers", name, f.Type.Elem())
				}
			case f.Type.Kind() == reflect.Struct && f.Anonymous:
				check(f.Type, name+".")
			case hasPointers(f.Type) && !allowed[f.Name]:
				t.Errorf("header field %s (%s) holds a pointer", name, f.Type)
			}
		}
	}
	check(reflect.TypeOf(State{}), "State.")
}

// hasPointers reports whether a value of type rt contains a pointer the
// collector must trace.
func hasPointers(rt reflect.Type) bool {
	switch rt.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface,
		reflect.String, reflect.Slice, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return rt.Len() > 0 && hasPointers(rt.Elem())
	case reflect.Struct:
		for i := 0; i < rt.NumField(); i++ {
			if hasPointers(rt.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
