package logp

import (
	"runtime"
	"testing"
	"weak"
)

// liveBody is a message body large enough to get its own allocation,
// so its weak pointer clears as soon as the body itself is unreachable.
type liveBody struct {
	src, k int
	pad    [64]byte
}

// bodyExchange returns a program in which processor 0 halts at once
// and every other processor sends two bodies to processor 0, which
// never acquires them, and two to its successor among 1..P-1, then
// acquires its predecessor's two. Every body's weak pointer is
// recorded in sent (indexed [src*4+k]); a receiver that gets a body
// other than the one its sender made reports it through bad.
func bodyExchange(sent []weak.Pointer[liveBody], bad []string) Program {
	return func(pr Proc) {
		id, p := pr.ID(), pr.P()
		if id == 0 {
			return
		}
		next := id%(p-1) + 1
		for k := 0; k < 4; k++ {
			dst := 0
			if k >= 2 {
				dst = next
			}
			b := &liveBody{src: id, k: k}
			sent[id*4+k] = weak.Make(b)
			pr.SendBody(dst, int32(k), int64(id), 0, b)
		}
		for k := 2; k < 4; k++ {
			m := pr.Recv()
			b, ok := m.Body.(*liveBody)
			if !ok || weak.Make(b) != sent[m.Src*4+k] || b.src != m.Src || b.k != k {
				bad[id] = "wrong body"
			}
		}
	}
}

// TestBodiesAreNotRetained checks that a Body reaches its receiver as
// the identical pointer and that, once Run returns, the machine — its
// record slab, body table, retained processor records — pins none of
// them, including the bodies still buffered at a halted destination.
func TestBodiesAreNotRetained(t *testing.T) {
	const p = 5
	m := NewMachine(Params{P: p, L: 16, O: 1, G: 4})
	for run := 0; run < 2; run++ {
		sent := make([]weak.Pointer[liveBody], 4*p)
		bad := make([]string, p)
		if _, err := m.Run(bodyExchange(sent, bad)); err != nil {
			t.Fatal(err)
		}
		for id, s := range bad {
			if s != "" {
				t.Errorf("run %d: processor %d: %s", run, id, s)
			}
		}
		runtime.GC()
		for i := 4; i < len(sent); i++ {
			if sent[i].Value() != nil {
				t.Errorf("run %d: body %d from processor %d is still reachable after Run", run, i%4, i/4)
			}
		}
	}
	runtime.KeepAlive(m)
}
