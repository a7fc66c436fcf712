package logp

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
)

// randRelScript routes an h-relation of h superimposed random
// permutations with sends at most w ahead of receives — the shape of
// the E16 scale experiment.
type randRelScript struct {
	h, w           int
	rel            *relation.RandomRegularStream
	k, issued, got []int32
}

func newRandRelScript(rel *relation.RandomRegularStream, w int) *randRelScript {
	p := rel.P()
	return &randRelScript{h: rel.H(), w: w, rel: rel,
		k: make([]int32, p), issued: make([]int32, p), got: make([]int32, p)}
}

func (s *randRelScript) Active(int) bool { return true }

func (s *randRelScript) Next(id int, _ ScriptResult) ScriptOp {
	for {
		k, issued, got := int(s.k[id]), int(s.issued[id]), int(s.got[id])
		switch {
		case k < s.h && issued-got < s.w:
			s.k[id]++
			dst := s.rel.Pair(id, k).Dst
			if dst == id {
				continue // fixed point: nothing to send or expect
			}
			s.issued[id]++
			return ScriptOp{Kind: ScriptSend, Dst: dst, Tag: int32(k)}
		case k < s.h || got < issued:
			s.got[id]++
			return ScriptOp{Kind: ScriptRecv}
		default:
			return ScriptOp{Kind: ScriptHalt}
		}
	}
}

// TestQueueCountersRandomRelation pins the queues' work on an
// E16-shaped run (p = 1024, h = capacity and 2*capacity, DeliverRandom
// and AcceptRandom) with deterministic counters: no entry leaves the
// rings for the overflow heaps, and no ready bucket is sorted more than
// once per activation. A regression to per-peek sorting or to the
// overflow path fails here without any timing.
func TestQueueCountersRandomRelation(t *testing.T) {
	const p = 1024
	params := Params{P: p, L: 40, O: 1, G: 2}
	m := NewMachine(params, WithDeliveryPolicy(DeliverRandom), WithAcceptOrder(AcceptRandom))
	for _, h := range []int{20, 40} {
		rel := &relation.RandomRegularStream{}
		rel.Reset(stats.NewRNG(uint64(h)), p, h)
		res, err := m.RunScript(newRandRelScript(rel, 8))
		if err != nil {
			t.Fatal(err)
		}
		ev, rd := m.events.Counts(), m.ready.Counts()
		if ev.OverflowPushes != 0 || rd.OverflowPushes != 0 {
			t.Errorf("h=%d: overflow pushes events %d ready %d, want 0", h, ev.OverflowPushes, rd.OverflowPushes)
		}
		if ev.RingPushes != 2*res.MessagesSent {
			t.Errorf("h=%d: %d event pushes for %d messages, want a submission and a delivery each", h, ev.RingPushes, res.MessagesSent)
		}
		if rd.Sorts > rd.Activations {
			t.Errorf("h=%d: %d bucket sorts for %d activations", h, rd.Sorts, rd.Activations)
		}
	}
}
