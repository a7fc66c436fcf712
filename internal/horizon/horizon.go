// Package horizon provides the two monotone bucket queues the LogP
// engines schedule through: Events, the medium's pending events keyed
// by (time, class, push order), and Ready, the runnable processors
// keyed by (clock, id).
//
// Both are calendar queues in the sense of Brown ("Calendar queues",
// CACM 1988) specialised to a bounded horizon. The LogP medium bounds
// how far ahead of the committed instant an event can land — an
// accepted message is delivered within (a, a+L], and a submission
// lands at most max(o, G) after its issuer's clock — so a power-of-two
// ring of per-instant buckets covering [base, base+W) holds nearly
// every entry, and an occupancy bitset finds the earliest one. Entries
// at or beyond base+W wait in an overflow heap and migrate into the
// ring as the base advances.
//
// The queues are monotone: nothing may be pushed below base, and base
// follows only what the engine has committed — a popped key, or an
// instant passed to Events.Advance — never the minimum of what is
// queued, because an engine may still push below a queued minimum it
// has not committed yet. A push below base is an engine bug and
// panics.
package horizon

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Ring sizes are powers of two between one bitset word and maxWidth;
// entries beyond a capped ring take the overflow path, so the cap
// bounds memory without affecting order.
const (
	minWidth = 64
	maxWidth = 1 << 16
)

// Counts are a queue's deterministic work counters: a pure function of
// the push/pop sequence, so tests can pin the queue's cost without
// wall-clock time.
type Counts struct {
	// RingPushes counts pushes that landed directly in a ring bucket.
	RingPushes int64
	// OverflowPushes counts pushes at or beyond base+W, which went to
	// the overflow heap.
	OverflowPushes int64
	// Activations counts Ready buckets turning from empty to occupied.
	Activations int64
	// Sorts counts Ready bucket sorts; a bucket is sorted only when it
	// is popped (or its minimum id is asked for) after an out-of-order
	// push, so Sorts <= Activations when pushes come in id order
	// within each instant after the first pop.
	Sorts int64
}

// ring is the bucket index shared by both queues: slot t&mask holds
// instant t for t in [base, base+mask], and occ marks occupied slots.
type ring struct {
	mask int64
	base int64
	occ  []uint64
}

// reset sizes the ring for a horizon of span instants and empties it.
// It reports the slot count.
func (r *ring) reset(span int64) int {
	w := minWidth
	for int64(w) < span && w < maxWidth {
		w <<= 1
	}
	r.mask = int64(w - 1)
	r.base = 0
	r.occ = reuse(r.occ, w/64)
	clear(r.occ)
	return w
}

// fits reports whether instant t (>= base) has a ring slot.
func (r *ring) fits(t int64) bool { return t-r.base <= r.mask }

func (r *ring) slot(t int64) int { return int(t & r.mask) }

func (r *ring) mark(s int)   { r.occ[s>>6] |= 1 << (uint(s) & 63) }
func (r *ring) unmark(s int) { r.occ[s>>6] &^= 1 << (uint(s) & 63) }

// check panics when t lies below the committed base.
func (r *ring) check(what string, t int64) {
	if t < r.base {
		panic(fmt.Sprintf("horizon: %s %d pushed below the committed instant %d (bug)", what, t, r.base))
	}
}

// next returns the earliest occupied instant at or after t, which must
// be at or below every occupied instant; some slot must be occupied.
// The scan walks the bitset cyclically from t's slot and never sorts
// or visits a bucket.
func (r *ring) next(t int64) int64 {
	s := r.slot(t)
	w := s >> 6
	if word := r.occ[w] >> (uint(s) & 63); word != 0 {
		return t + int64(bits.TrailingZeros64(word))
	}
	d := int64(64 - s&63)
	n := len(r.occ)
	for i := 1; i <= n; i++ {
		if word := r.occ[(w+i)&(n-1)]; word != 0 {
			return t + d + int64(bits.TrailingZeros64(word))
		}
		d += 64
	}
	panic("horizon: scan of an empty ring (bug)")
}

// Events is the medium's event queue: a ring of per-instant buckets,
// each holding one intrusive FIFO per class, plus an overflow heap. It
// pops in (time, class, push order) order. The FIFOs are threaded
// through the caller's records: link(i) must return the address of
// record i's successor field, which the queue owns while i is queued.
type Events struct {
	ring
	link    func(int32) *int32
	classes int
	head    []int32 // [slot*classes+class], -1 when empty
	tail    []int32
	n       int   // entries in the ring
	min     int64 // earliest ring instant, valid while n > 0
	over    valueHeap[event]
	seq     int64 // overflow push order
	counts  Counts
}

// event is one overflow entry.
type event struct {
	time  int64
	seq   int64
	idx   int32
	class uint8
}

func (a event) before(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.seq < b.seq
}

// Reset empties q and sizes its ring for events up to span instants
// past the committed instant, with the given number of classes
// (popped lowest class first within an instant). Buffers are reused
// across calls.
func (q *Events) Reset(span int64, classes int, link func(int32) *int32) {
	w := q.ring.reset(span)
	q.link = link
	q.classes = classes
	q.head = reuse(q.head, w*classes)
	q.tail = reuse(q.tail, w*classes)
	for i := range q.head {
		q.head[i], q.tail[i] = -1, -1
	}
	q.n = 0
	q.over = q.over[:0]
	q.seq = 0
	q.counts = Counts{}
}

// Len returns the number of queued events.
func (q *Events) Len() int { return q.n + len(q.over) }

// MinTime returns the earliest queued instant, or math.MaxInt64 when q
// is empty.
func (q *Events) MinTime() int64 {
	if q.n > 0 {
		return q.min
	}
	if len(q.over) > 0 {
		return q.over[0].time
	}
	return math.MaxInt64
}

// Counts returns q's work counters since the last Reset.
func (q *Events) Counts() Counts { return q.counts }

// Push queues record idx at instant t in class.
//
//hot:path called per medium event by both engines
func (q *Events) Push(t int64, class int, idx int32) {
	q.check("event", t)
	if !q.fits(t) {
		q.counts.OverflowPushes++
		q.over.push(event{time: t, seq: q.seq, idx: idx, class: uint8(class)})
		q.seq++
		return
	}
	q.counts.RingPushes++
	q.append(t, class, idx)
}

// append links idx at the tail of its bucket's class FIFO.
func (q *Events) append(t int64, class int, idx int32) {
	s := q.slot(t)
	k := s*q.classes + class
	*q.link(idx) = -1
	if tl := q.tail[k]; tl >= 0 {
		*q.link(tl) = idx
	} else {
		q.head[k] = idx
	}
	q.tail[k] = idx
	q.mark(s)
	if q.n == 0 || t < q.min {
		q.min = t
	}
	q.n++
}

// Pop removes the earliest event and returns its record and class.
// Popping commits the event's instant: base advances to it. q must be
// non-empty.
//
//hot:path called per medium event by both engines
func (q *Events) Pop() (int32, int) {
	if q.n == 0 {
		e := q.over.pop()
		q.Advance(e.time)
		return e.idx, int(e.class)
	}
	t := q.min
	s := q.slot(t)
	k0 := s * q.classes
	for c := 0; c < q.classes; c++ {
		idx := q.head[k0+c]
		if idx < 0 {
			continue
		}
		nx := *q.link(idx)
		q.head[k0+c] = nx
		q.n--
		if nx < 0 {
			q.tail[k0+c] = -1
			if q.bucketEmpty(k0, c+1) {
				q.unmark(s)
				if q.n > 0 {
					q.min = q.next(t + 1)
				}
			}
		}
		q.Advance(t)
		return idx, c
	}
	panic("horizon: occupied bucket with no event (bug)")
}

// bucketEmpty reports whether classes from..classes-1 of the bucket at
// k0 are empty.
func (q *Events) bucketEmpty(k0, from int) bool {
	for c := from; c < q.classes; c++ {
		if q.head[k0+c] >= 0 {
			return false
		}
	}
	return true
}

// Advance commits instant t: the caller guarantees that every queued
// event lies at or after t and that nothing will be pushed below it.
// Overflow events that now fit migrate into the ring, ahead of any
// later push to the same instant.
//
//hot:path called per committed operation by both engines
func (q *Events) Advance(t int64) {
	if t <= q.base {
		return
	}
	q.base = t
	for len(q.over) > 0 && q.fits(q.over[0].time) {
		e := q.over.pop()
		q.append(e.time, int(e.class), e.idx)
	}
}

// Ready is the scheduler's ready queue: a ring of per-clock buckets of
// processor ids plus an overflow heap, popped in (clock, id) order.
// Each bucket is an intrusive list through a per-id link array; ids
// appended in ascending order keep it sorted, and a bucket that
// received an out-of-order id is sorted once, when its minimum id is
// first needed. MinClock never sorts.
type Ready struct {
	ring
	link     []int32 // per id: successor in its bucket
	head     []int32 // per slot, -1 when empty
	tail     []int32
	unsorted []bool // per slot
	n        int    // entries in the ring
	min      int64  // earliest ring clock, valid while n > 0
	over     valueHeap[proc]
	scratch  []int32
	counts   Counts
}

// proc is one overflow entry.
type proc struct {
	clock int64
	id    int32
}

func (a proc) before(b proc) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.id < b.id
}

// Reset empties q and sizes it for ids below n and clocks up to span
// past the last popped clock. Buffers are reused across calls.
func (q *Ready) Reset(span int64, n int) {
	w := q.ring.reset(span)
	q.link = reuse(q.link, n)
	q.head = reuse(q.head, w)
	q.tail = reuse(q.tail, w)
	for i := range q.head {
		q.head[i], q.tail[i] = -1, -1
	}
	q.unsorted = reuse(q.unsorted, w)
	clear(q.unsorted)
	q.n = 0
	q.over = q.over[:0]
	q.scratch = q.scratch[:0]
	q.counts = Counts{}
}

// Len returns the number of queued processors.
func (q *Ready) Len() int { return q.n + len(q.over) }

// MinClock returns the smallest queued clock, or math.MaxInt64 when q
// is empty.
func (q *Ready) MinClock() int64 {
	if q.n > 0 {
		return q.min
	}
	if len(q.over) > 0 {
		return q.over[0].clock
	}
	return math.MaxInt64
}

// MinID returns the smallest id among the processors at MinClock. q
// must be non-empty.
//
//hot:path called on clock ties by the logp scheduler
func (q *Ready) MinID() int32 {
	if q.n == 0 {
		return q.over[0].id
	}
	s := q.slot(q.min)
	if q.unsorted[s] {
		q.sort(s)
	}
	return q.head[s]
}

// Counts returns q's work counters since the last Reset.
func (q *Ready) Counts() Counts { return q.counts }

// Push queues processor id at clock. id must not be queued already.
//
//hot:path called per scheduling step by both engines
func (q *Ready) Push(clock int64, id int32) {
	q.check("clock", clock)
	if !q.fits(clock) {
		q.counts.OverflowPushes++
		q.over.push(proc{clock: clock, id: id})
		return
	}
	q.counts.RingPushes++
	q.append(clock, id)
}

func (q *Ready) append(clock int64, id int32) {
	s := q.slot(clock)
	q.link[id] = -1
	if tl := q.tail[s]; tl >= 0 {
		q.link[tl] = id
		if id < tl {
			q.unsorted[s] = true
		}
	} else {
		q.head[s] = id
		q.mark(s)
		q.counts.Activations++
	}
	q.tail[s] = id
	if q.n == 0 || clock < q.min {
		q.min = clock
	}
	q.n++
}

// Pop removes the processor with the minimum (clock, id) and returns
// it. Popping commits its clock: base advances to it. q must be
// non-empty.
//
//hot:path called per scheduling step by both engines
func (q *Ready) Pop() (int64, int32) {
	if q.n == 0 {
		e := q.over.pop()
		q.advance(e.clock)
		return e.clock, e.id
	}
	c := q.min
	s := q.slot(c)
	if q.unsorted[s] {
		q.sort(s)
	}
	id := q.head[s]
	nx := q.link[id]
	q.head[s] = nx
	q.n--
	if nx < 0 {
		q.tail[s] = -1
		q.unmark(s)
		if q.n > 0 {
			q.min = q.next(c + 1)
		}
	}
	q.advance(c)
	return c, id
}

// advance moves base to clock and migrates the overflow entries that
// now fit.
func (q *Ready) advance(clock int64) {
	if clock <= q.base {
		return
	}
	q.base = clock
	for len(q.over) > 0 && q.fits(q.over[0].clock) {
		e := q.over.pop()
		q.append(e.clock, e.id)
	}
}

// sort puts the bucket at slot s in ascending id order.
func (q *Ready) sort(s int) {
	ids := q.scratch[:0]
	for i := q.head[s]; i >= 0; i = q.link[i] {
		//lint:ignore hotloop sort scratch: grows to the largest bucket, at most one entry per id, and is retained across sorts and runs
		ids = append(ids, i)
	}
	slices.Sort(ids)
	for j := 1; j < len(ids); j++ {
		q.link[ids[j-1]] = ids[j]
	}
	q.link[ids[len(ids)-1]] = -1
	q.head[s], q.tail[s] = ids[0], ids[len(ids)-1]
	q.unsorted[s] = false
	q.scratch = ids
	q.counts.Sorts++
}

// ordered is a value with a strict weak order.
type ordered[T any] interface{ before(T) bool }

// valueHeap is a binary min-heap of values, the overflow store of both
// queues. Entries are copied by value, so pushes box nothing.
type valueHeap[T ordered[T]] []T

func (h *valueHeap[T]) push(v T) {
	a := append(*h, v)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a[i].before(a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
	*h = a
}

func (h *valueHeap[T]) pop() T {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && a[l].before(a[min]) {
			min = l
		}
		if r < n && a[r].before(a[min]) {
			min = r
		}
		if min == i {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	*h = a
	return top
}

// reuse returns a slice of length n backed by s when it is large
// enough. The contents are unspecified.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
