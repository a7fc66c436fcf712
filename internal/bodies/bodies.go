// Package bodies holds the opaque message Bodies of the LogP engines
// off their message slabs. A slab record names its Body by an int32
// reference instead of holding the interface value, so the records
// carry no pointers and the GC never scans the slabs.
package bodies

// Table is one engine's Body side table. A reference is a slot index
// plus one; 0 stands for a message without a Body, which takes no
// slot. Freed slots are reused through an int32 free list, so a warm
// engine's table stops growing at its high-water mark of Body-carrying
// messages in flight.
type Table struct {
	slots []interface{}
	free  []int32
}

// Put stores v and returns its reference (0 for a nil v).
//
//hot:path called per message by the engines
func (t *Table) Put(v interface{}) int32 {
	if v == nil {
		return 0
	}
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[i] = v
		return i + 1
	}
	t.slots = append(t.slots, v)
	return int32(len(t.slots))
}

// Get returns the Body behind ref without freeing its slot.
//
//hot:path called per traced message event by the engines
func (t *Table) Get(ref int32) interface{} {
	if ref == 0 {
		return nil
	}
	return t.slots[ref-1]
}

// Take returns the Body behind ref and frees its slot, so the table no
// longer keeps the Body alive.
//
//hot:path called per message by the engines
func (t *Table) Take(ref int32) interface{} {
	if ref == 0 {
		return nil
	}
	v := t.slots[ref-1]
	t.slots[ref-1] = nil
	t.free = append(t.free, ref-1)
	return v
}

// Reset frees every slot, dropping the Bodies they held, and keeps the
// storage for reuse.
func (t *Table) Reset() {
	clear(t.slots)
	t.slots = t.slots[:0]
	t.free = t.free[:0]
}
