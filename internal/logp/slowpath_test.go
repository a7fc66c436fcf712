package logp

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The tests in this file check the coroutine fast path against the
// WithSlowPath oracle, which runs one goroutine per processor and
// hands control to them one at a time: the sequential reference. Their
// TestParallel* names date from the sharded scheduler these cases were
// first written against; they are kept so the test history stays
// continuous across that scheduler's removal.

// allToAllProgram keeps every processor both sending and receiving.
func allToAllProgram(p Proc) {
	const rounds = 5
	for k := 0; k < rounds; k++ {
		for d := 0; d < p.P(); d++ {
			if d == p.ID() {
				continue
			}
			p.Send(d, int32(k), int64(p.ID()), int64(k))
		}
		p.Compute(int64(p.ID()%3) + 1)
	}
	for i := 0; i < rounds*(p.P()-1); i++ {
		m := p.Recv()
		p.Compute(1 + m.Payload%3)
	}
}

// pollProgram drives the fast path's local resolution (Buffered and
// failing TryRecv) so run-ahead segments cross the watermark often.
func pollProgram(p Proc) {
	if p.ID() == 0 {
		got := 0
		for got < 2*(p.P()-1) {
			if _, ok := p.TryRecv(); ok {
				got++
			} else if p.Buffered() == 0 {
				p.Compute(1)
			}
		}
		return
	}
	p.Compute(int64(3 * p.ID()))
	p.Send(0, 0, int64(p.ID()), 0)
	p.Send(0, 1, int64(p.ID()), 1)
}

// TestParallelMatchesSequential runs hand-written programs through the
// fast-vs-slow harness under every delivery policy on machines of 2, 3
// and 6 processors.
func TestParallelMatchesSequential(t *testing.T) {
	programs := []struct {
		name string
		prog Program
	}{
		{"busy", busyProgram},
		{"ping", pingProgram},
		{"allToAll", allToAllProgram},
		{"poll", pollProgram},
	}
	for _, pr := range programs {
		for _, policy := range []DeliveryPolicy{DeliverMaxLatency, DeliverMinLatency, DeliverRandom} {
			for _, procs := range []int{2, 3, 6} {
				params := Params{P: procs, L: 9, O: 2, G: 3}
				t.Run(pr.name, func(t *testing.T) {
					checkSlowPathMatch(t, params, pr.prog, policy, 11)
				})
			}
		}
	}
}

// TestParallelBoundaryParams pins the degenerate corners of the
// parameter space: G == L collapses the capacity to 1 (the watermark
// hugs the clocks), and O == G == L makes every operation instant
// boundary-aligned.
func TestParallelBoundaryParams(t *testing.T) {
	for _, params := range []Params{
		{P: 4, L: 2, O: 1, G: 2},
		{P: 4, L: 2, O: 2, G: 2},
		{P: 3, L: 3, O: 1, G: 3},
	} {
		if params.Capacity() != 1 {
			t.Fatalf("params %+v: want the degenerate capacity 1, got %d", params, params.Capacity())
		}
		for _, prog := range []Program{busyProgram, pollProgram, allToAllProgram} {
			checkSlowPathMatch(t, params, prog, DeliverMaxLatency, 5)
			checkSlowPathMatch(t, params, prog, DeliverRandom, 5)
		}
	}
}

// TestParallelAcrossGOMAXPROCS asserts that both engines produce the
// same Result and trace whether the slow path's processor goroutines
// can run on 1, 2 or 8 OS threads.
func TestParallelAcrossGOMAXPROCS(t *testing.T) {
	params := Params{P: 8, L: 8, O: 1, G: 2}
	base, baseTrace, _, err := runOnce(t, params, allToAllProgram, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, opts := range [][]Option{{WithSeed(3)}, {WithSeed(3), WithSlowPath()}} {
			res, trace, _, err := runOnce(t, params, allToAllProgram, opts...)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", gmp, err)
			}
			if !reflect.DeepEqual(res, base) {
				t.Fatalf("GOMAXPROCS=%d: Result mismatch:\nbase %+v\ngot  %+v", gmp, base, res)
			}
			if !reflect.DeepEqual(trace, baseTrace) {
				t.Fatalf("GOMAXPROCS=%d: trace mismatch (%d vs %d events)", gmp, len(baseTrace), len(trace))
			}
		}
	}
}

// TestParallelRepeatedRuns checks the WithSeed determinism contract on
// one machine: the slow path's run i must replay the fast path's run i,
// so the per-run reseed stream is the same on both.
func TestParallelRepeatedRuns(t *testing.T) {
	params := Params{P: 4, L: 8, O: 1, G: 2}
	fastM := NewMachine(params, WithSeed(9), WithDeliveryPolicy(DeliverRandom), WithAcceptOrder(AcceptRandom))
	slowM := NewMachine(params, WithSeed(9), WithDeliveryPolicy(DeliverRandom), WithAcceptOrder(AcceptRandom), WithSlowPath())
	for i := 0; i < 3; i++ {
		fastRes, fastErr := fastM.Run(busyProgram)
		slowRes, slowErr := slowM.Run(busyProgram)
		if fastErr != nil || slowErr != nil {
			t.Fatalf("run %d: errors %v, %v", i, fastErr, slowErr)
		}
		if !reflect.DeepEqual(fastRes, slowRes) {
			t.Fatalf("run %d diverged:\nfast %+v\nslow %+v", i, fastRes, slowRes)
		}
	}
}

// TestParallelPanicDeterministic makes several processors panic in one
// run and checks that the slow path, whose processor goroutines finish
// in any order, reports the fast path's error: the panic whose
// dispatch came first.
func TestParallelPanicDeterministic(t *testing.T) {
	params := Params{P: 6, L: 8, O: 1, G: 2}
	prog := func(p Proc) {
		p.Compute(int64(1 + p.ID()))
		if p.ID()%2 == 1 {
			panic("boom")
		}
		p.Compute(50)
	}
	_, fastErr := NewMachine(params).Run(prog)
	if fastErr == nil {
		t.Fatal("fast-path run did not surface the panic")
	}
	slowM := NewMachine(params, WithSlowPath())
	for i := 0; i < 5; i++ { // repeat: completion order varies, the report must not
		_, slowErr := slowM.Run(prog)
		if slowErr == nil || slowErr.Error() != fastErr.Error() {
			t.Fatalf("run %d: slow-path error %v, want %v", i, slowErr, fastErr)
		}
	}
}

func TestParallelDeadlockDetected(t *testing.T) {
	params := Params{P: 4, L: 8, O: 1, G: 2}
	prog := func(p Proc) {
		if p.ID() == 0 {
			p.Recv() // nobody sends
		}
	}
	_, fastErr := NewMachine(params).Run(prog)
	_, slowErr := NewMachine(params, WithSlowPath()).Run(prog)
	if fastErr == nil || slowErr == nil {
		t.Fatalf("deadlock not detected: fast %v, slow %v", fastErr, slowErr)
	}
	if fastErr.Error() != slowErr.Error() {
		t.Fatalf("deadlock reports differ:\nfast %v\nslow %v", fastErr, slowErr)
	}
	if !strings.Contains(slowErr.Error(), "deadlock") {
		t.Fatalf("unexpected error: %v", slowErr)
	}
}

func TestParallelStrictStallFree(t *testing.T) {
	params := Params{P: 4, L: 8, O: 1, G: 2}
	_, fastErr := NewMachine(params, WithStrictStallFree()).Run(busyProgram)
	_, slowErr := NewMachine(params, WithStrictStallFree(), WithSlowPath()).Run(busyProgram)
	if fastErr == nil || slowErr == nil {
		t.Fatalf("hot spot did not stall: fast %v, slow %v", fastErr, slowErr)
	}
	if fastErr.Error() != slowErr.Error() {
		t.Fatalf("strict-stall-free reports differ:\nfast %v\nslow %v", fastErr, slowErr)
	}
}
