package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// pointerFields returns the paths of every field of t whose kind can
// hold a pointer, descending into nested structs and arrays.
func pointerFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return pointerFields(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.String:
		return []string{path + " (" + t.Kind().String() + ")"}
	}
	return nil
}

// TestCycleRecLayout pins the replay's message slab record at 48 bytes
// with no field the GC would have to scan; a Message or Body field
// re-added to the record fails here.
func TestCycleRecLayout(t *testing.T) {
	if n := unsafe.Sizeof(cycleRec{}); n != 48 {
		t.Errorf("cycleRec is %d bytes, want 48", n)
	}
	if f := pointerFields(reflect.TypeOf(cycleRec{}), "cycleRec"); len(f) > 0 {
		t.Errorf("cycleRec has pointer-holding fields: %v", f)
	}
}
