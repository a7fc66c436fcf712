package horizon

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// refEvent and refProc are the reference model's entries: the queues
// must pop them in the order a full sort of the model gives.
type refEvent struct {
	time  int64
	class int
	seq   int
	idx   int32
}

type refProc struct {
	clock int64
	id    int32
}

func sortEvents(evs []refEvent) {
	slices.SortFunc(evs, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.class, b.class), cmp.Compare(a.seq, b.seq))
	})
}

func sortProcs(ps []refProc) {
	slices.SortFunc(ps, func(a, b refProc) int {
		return cmp.Or(cmp.Compare(a.clock, b.clock), cmp.Compare(a.id, b.id))
	})
}

// queueSpan sizes both queues in the checks below to the minimum ring
// (64 slots), so offsets of 64 and more take the overflow path.
const queueSpan = 10

const readyIDs = 16

// checkQueueOps interprets data as a monotone sequence of operations on
// an Events queue (two classes) and a Ready queue, checking every pop
// and peek against a sort-based reference. Each operation is three
// bytes: opcode, then two operands.
//
//	0 push an event at base+a%64 (in the ring), class b&1
//	1 push an event at base+64+4a (beyond the ring), class b&1
//	2 pop an event
//	3 advance the event base by a%16, capped at the earliest event
//	4 push processor b%16 (or the next free id) at base+a%64
//	5 push processor b%16 (or the next free id) at base+64+4a
//	6 pop a processor
//	7 peek both queues' minima
func checkQueueOps(t *testing.T, data []byte) {
	var ev Events
	next := make([]int32, 0, len(data))
	ev.Reset(queueSpan, 2, func(i int32) *int32 { return &next[i] })
	var rd Ready
	rd.Reset(queueSpan, readyIDs)

	var evRef []refEvent
	var rdRef []refProc
	var evBase, rdBase int64
	queued := make([]bool, readyIDs)
	seq := 0
	var trail strings.Builder
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after %s: %s", trail.String(), fmt.Sprintf(format, args...))
	}
	for len(data) >= 3 {
		op, a, b := data[0]%8, int64(data[1]), data[2]
		data = data[3:]
		fmt.Fprintf(&trail, "[%d %d %d]", op, a, b)
		switch op {
		case 0, 1:
			at := evBase + a%64
			if op == 1 {
				at = evBase + 64 + 4*a
			}
			idx := int32(len(next))
			next = append(next, 0)
			ev.Push(at, int(b&1), idx)
			evRef = append(evRef, refEvent{time: at, class: int(b & 1), seq: seq, idx: idx})
			seq++
		case 2:
			if len(evRef) == 0 {
				continue
			}
			sortEvents(evRef)
			want := evRef[0]
			evRef = evRef[1:]
			idx, class := ev.Pop()
			if idx != want.idx || class != want.class {
				fail("event pop = (idx %d, class %d), want %+v", idx, class, want)
			}
			evBase = want.time
		case 3:
			to := evBase + a%16
			for _, e := range evRef {
				to = min(to, e.time)
			}
			ev.Advance(to)
			evBase = max(evBase, to)
		case 4, 5:
			id := int32(b % readyIDs)
			for n := 0; queued[id] && n < readyIDs; n++ {
				id = (id + 1) % readyIDs
			}
			if queued[id] {
				continue
			}
			clock := rdBase + a%64
			if op == 5 {
				clock = rdBase + 64 + 4*a
			}
			queued[id] = true
			rd.Push(clock, id)
			rdRef = append(rdRef, refProc{clock: clock, id: id})
		case 6:
			if len(rdRef) == 0 {
				continue
			}
			sortProcs(rdRef)
			want := rdRef[0]
			rdRef = rdRef[1:]
			clock, id := rd.Pop()
			if clock != want.clock || id != want.id {
				fail("ready pop = (%d, %d), want %+v", clock, id, want)
			}
			queued[id] = false
			rdBase = clock
		case 7:
			if len(rdRef) > 0 {
				sortProcs(rdRef)
				if got := rd.MinID(); got != rdRef[0].id {
					fail("MinID = %d, want %d", got, rdRef[0].id)
				}
			}
		}
		if ev.Len() != len(evRef) || rd.Len() != len(rdRef) {
			fail("Len = %d/%d, want %d/%d", ev.Len(), rd.Len(), len(evRef), len(rdRef))
		}
		wantT, wantC := int64(math.MaxInt64), int64(math.MaxInt64)
		for _, e := range evRef {
			wantT = min(wantT, e.time)
		}
		for _, p := range rdRef {
			wantC = min(wantC, p.clock)
		}
		if ev.MinTime() != wantT || rd.MinClock() != wantC {
			fail("MinTime/MinClock = %d/%d, want %d/%d", ev.MinTime(), rd.MinClock(), wantT, wantC)
		}
	}
	// Drain: everything left must still come out in reference order.
	sortEvents(evRef)
	for _, want := range evRef {
		if idx, class := ev.Pop(); idx != want.idx || class != want.class {
			fail("drain: event pop = (%d, %d), want %+v", idx, class, want)
		}
	}
	sortProcs(rdRef)
	for _, want := range rdRef {
		if clock, id := rd.Pop(); clock != want.clock || id != want.id {
			fail("drain: ready pop = (%d, %d), want %+v", clock, id, want)
		}
	}
}

// queueSeeds are the fuzz seed corpus, one per case the ring must get
// exactly right.
var queueSeeds = map[string][]byte{
	// Events past base+W, then a pop that advances the base so they
	// migrate, then direct pushes to the same instants, which must pop
	// after the migrated ones.
	"overflow-migration": {
		1, 0, 0, 1, 0, 1, 1, 2, 0, 1, 1, 0,
		0, 5, 0, 2, 0, 0, 0, 59, 1, 0, 59, 0, 0, 60, 1,
		3, 15, 0, 0, 50, 0, 0, 50, 1,
		2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0,
		5, 0, 3, 5, 1, 4, 4, 10, 5, 6, 0, 0, 4, 63, 7, 4, 63, 6, 6, 0, 0, 6, 0, 0,
	},
	// Deliveries and submissions interleaved at one instant: every
	// delivery (class 0) pops before every submission (class 1), each
	// class in push order.
	"same-instant-classes": {
		0, 3, 1, 0, 3, 0, 0, 3, 1, 0, 3, 0, 0, 4, 0, 0, 3, 1,
		7, 0, 0, 2, 0, 0, 0, 3, 1, 0, 3, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0,
	},
	// Descending ids pushed into one clock: the bucket is sorted once,
	// when its minimum is first needed.
	"descending-ids": {
		4, 7, 15, 4, 7, 12, 4, 7, 9, 4, 7, 3, 4, 7, 1, 4, 2, 14,
		7, 0, 0, 6, 0, 0, 6, 0, 0, 4, 7, 0, 6, 0, 0, 6, 0, 0, 6, 0, 0, 6, 0, 0,
	},
	// Both rings empty with entries far in the future: a submission
	// and then a delivery at one instant pop straight from the overflow
	// heap, delivery first, and the first pop moves the base there,
	// after which near pushes are relative to it.
	"empty-ring-far-entry": {
		1, 200, 1, 1, 200, 0, 5, 200, 2, 7, 0, 0, 2, 0, 0, 6, 0, 0,
		0, 0, 0, 0, 1, 1, 4, 0, 3, 4, 0, 2, 2, 0, 0, 6, 0, 0, 6, 0, 0,
	},
}

func FuzzHorizonQueues(f *testing.F) {
	for _, s := range queueSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		checkQueueOps(t, data)
	})
}

// TestOverflowMigrationOrder spells out the migration rule: an event
// that went to the overflow heap pops before a later direct push to the
// same instant and class.
func TestOverflowMigrationOrder(t *testing.T) {
	var ev Events
	next := make([]int32, 4)
	ev.Reset(queueSpan, 2, func(i int32) *int32 { return &next[i] })
	ev.Push(100, 1, 0) // beyond the 64-slot ring
	ev.Push(1, 0, 1)
	if c := ev.Counts(); c.OverflowPushes != 1 || c.RingPushes != 1 {
		t.Fatalf("counts %+v, want one ring and one overflow push", c)
	}
	if idx, _ := ev.Pop(); idx != 1 {
		t.Fatalf("first pop = %d, want 1", idx)
	}
	ev.Advance(50) // 100 now fits: migrates
	ev.Push(100, 1, 2)
	ev.Push(100, 0, 3)
	for _, want := range []int32{3, 0, 2} {
		if idx, _ := ev.Pop(); idx != want {
			t.Fatalf("pop = %d, want %d", idx, want)
		}
	}
}

func TestPushBelowBasePanics(t *testing.T) {
	for name, push := range map[string]func(){
		"events": func() {
			var ev Events
			next := make([]int32, 2)
			ev.Reset(queueSpan, 1, func(i int32) *int32 { return &next[i] })
			ev.Push(5, 0, 0)
			ev.Pop()
			ev.Push(4, 0, 1)
		},
		"ready": func() {
			var rd Ready
			rd.Reset(queueSpan, 2)
			rd.Push(5, 0)
			rd.Pop()
			rd.Push(4, 1)
		},
	} {
		func() {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "(bug)") {
					t.Errorf("%s: push below base recovered %v, want a (bug) panic", name, r)
				}
			}()
			push()
		}()
	}
}

// TestReadyPeeksNeverSort pins the scheduler's cost contract: MinClock
// is answered from the occupancy bitset, and a bucket is sorted at most
// once however often its minimum is inspected.
func TestReadyPeeksNeverSort(t *testing.T) {
	var rd Ready
	rd.Reset(queueSpan, readyIDs)
	for id := int32(readyIDs - 1); id >= 0; id-- {
		rd.Push(3, id)
	}
	for i := 0; i < 100; i++ {
		if rd.MinClock() != 3 {
			t.Fatal("MinClock moved")
		}
	}
	if c := rd.Counts(); c.Sorts != 0 || c.Activations != 1 {
		t.Fatalf("after peeks: %+v, want no sort and one activation", c)
	}
	for want := int32(0); want < readyIDs; want++ {
		if rd.MinID() != want {
			t.Fatalf("MinID = %d, want %d", rd.MinID(), want)
		}
		if _, id := rd.Pop(); id != want {
			t.Fatalf("pop = %d, want %d", id, want)
		}
	}
	if c := rd.Counts(); c.Sorts != 1 || c.RingPushes != readyIDs || c.OverflowPushes != 0 {
		t.Fatalf("after draining: %+v, want one sort and %d ring pushes", c, readyIDs)
	}
	// Ascending pushes keep a bucket sorted: no sort at all.
	rd.Reset(queueSpan, readyIDs)
	for id := int32(0); id < readyIDs; id++ {
		rd.Push(int64(id%4), id)
	}
	for rd.Len() > 0 {
		rd.Pop()
	}
	if c := rd.Counts(); c.Sorts != 0 || c.Activations != 4 {
		t.Fatalf("ascending pushes: %+v, want no sort and four activations", c)
	}
}

// TestResetReusesBuffers pins the allocation contract the engines'
// steady-state guards rely on: a warm queue allocates nothing.
func TestResetReusesBuffers(t *testing.T) {
	var ev Events
	var rd Ready
	next := make([]int32, 64)
	link := func(i int32) *int32 { return &next[i] }
	cycle := func() {
		ev.Reset(queueSpan, 2, link)
		rd.Reset(queueSpan, 64)
		for i := int32(0); i < 64; i++ {
			ev.Push(int64(i)*3, int(i&1), i)
			rd.Push(int64(63-i)*3, i)
		}
		for ev.Len() > 0 {
			ev.Pop()
		}
		for rd.Len() > 0 {
			rd.Pop()
		}
	}
	cycle()
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("warm queues allocate %.1f objects per cycle, want 0", n)
	}
}
