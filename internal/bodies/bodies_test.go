package bodies

import "testing"

func TestTableReusesFreedSlots(t *testing.T) {
	var tb Table
	if r := tb.Put(nil); r != 0 {
		t.Fatalf("Put(nil) = %d, want 0", r)
	}
	a, b := tb.Put("a"), tb.Put("b")
	if tb.Get(a) != "a" || tb.Get(b) != "b" || tb.Get(0) != nil {
		t.Fatalf("Get returned the wrong Bodies")
	}
	if v := tb.Take(a); v != "a" {
		t.Fatalf("Take(a) = %v", v)
	}
	if c := tb.Put("c"); c != a {
		t.Errorf("Put after Take got slot %d, want the freed slot %d", c, a)
	}
	if len(tb.slots) != 2 {
		t.Errorf("table grew to %d slots, want 2", len(tb.slots))
	}
	tb.Reset()
	if len(tb.slots) != 0 || len(tb.free) != 0 || cap(tb.slots) < 2 {
		t.Errorf("Reset left %d slots, %d free, cap %d", len(tb.slots), len(tb.free), cap(tb.slots))
	}
}
