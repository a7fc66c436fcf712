package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/horizon"
	"repro/internal/logp"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current engine")

// skewedExchange returns a program whose odd rounds send from every
// guest but 0 to guest 0 within one cycle, so the replay spreads the
// hot spot's excess arrivals one per G past the cycle boundary, far
// beyond the next cycles; even rounds send along a shifted
// permutation. Every guest logs the clock, source and tag of each
// message it acquires into log[id].
func skewedExchange(log [][]string) logp.Program {
	const rounds = 6
	return func(pr logp.Proc) {
		id, p := pr.ID(), pr.P()
		want, got := 0, 0
		note := func(m logp.Message) {
			log[id] = append(log[id], fmt.Sprintf("%d %d:%d", pr.Now(), m.Src, m.Tag))
			got++
		}
		for r := 0; r < rounds; r++ {
			hot := r%2 == 1
			if hot && id == 0 {
				want += p - 1
			} else if !hot {
				want++
			}
			pr.WaitUntil(int64(300 * r))
			pr.Compute(int64(1 + (id*7+r)%5))
			switch {
			case !hot:
				pr.Send((id+r%(p-1)+1)%p, int32(r), int64(id), 0)
			case id != 0:
				pr.Send(0, int32(r), int64(id), 0)
			}
			for {
				m, ok := pr.TryRecv()
				if !ok {
					break
				}
				note(m)
			}
		}
		for got < want {
			note(pr.Recv())
		}
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: first difference at line %d:\n got  %s\n want %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", name, len(gl), len(wl))
	}
}

// skewedReplayReport replays skewedExchange under lp and renders the
// Thm1Result and every guest's acquisition log. It returns the replay's
// event-queue counters alongside.
func skewedReplayReport(t *testing.T, lp logp.Params) (string, horizon.Counts) {
	t.Helper()
	sim := &LogPOnBSP{LogP: lp}
	log := make([][]string, lp.P)
	res, err := sim.Run(skewedExchange(log))
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityViolations == 0 {
		t.Fatal("the hot spot never overloaded a cycle")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "bsp %d extension %d guest %d cycles %d sent %d max-h %d violations %d\n",
		res.BSPTime, res.ExtensionTime, res.GuestTime, res.Cycles, res.MessagesSent, res.MaxCycleH, res.CapacityViolations)
	fmt.Fprintf(&b, "cycle-h %v\n", res.CycleH)
	for id, l := range log {
		fmt.Fprintf(&b, "%d: %s\n", id, strings.Join(l, " "))
	}
	return b.String(), sim.eng.events.Counts()
}

// TestSkewedReplayGolden pins the Theorem 1 replay of a hot-spot
// exchange whose spread-out arrivals lie far past the cycle boundary:
// the Thm1Result and every guest's acquisition log must match a file
// recorded from the binary-heap engine. The replay's ring covers the
// spreading rule's whole reach, so no arrival takes the overflow heap.
func TestSkewedReplayGolden(t *testing.T) {
	got, c := skewedReplayReport(t, logp.Params{P: 64, L: 16, O: 1, G: 2})
	if c.OverflowPushes != 0 {
		t.Errorf("%d arrivals took the overflow path, want 0: %+v", c.OverflowPushes, c)
	}
	checkGolden(t, "skewed_replay.txt", got)
}

// TestSkewedReplayOverflowGolden replays the same exchange with a gap
// so wide (L = G = 2048) that the spread hot-spot arrivals reach past
// the ring's 65536-slot cap: the overflow heap must take them, and the
// result must match a file recorded before the ring was sized to the
// spreading rule's reach.
func TestSkewedReplayOverflowGolden(t *testing.T) {
	got, c := skewedReplayReport(t, logp.Params{P: 64, L: 2048, O: 1, G: 2048})
	if c.OverflowPushes == 0 {
		t.Errorf("no arrival took the overflow path: %+v", c)
	}
	checkGolden(t, "skewed_replay_overflow.txt", got)
}

// countExchange is E17's count exchange in Script form: every guest
// sends one message to every other guest in destination order, then
// acquires the p-1 messages addressed to it.
type countExchange struct {
	p    int
	step []int32
}

func (s *countExchange) Active(int) bool { return true }

func (s *countExchange) Next(id int, _ logp.ScriptResult) logp.ScriptOp {
	k := int(s.step[id])
	s.step[id]++
	switch {
	case k < s.p-1:
		dst := k
		if dst >= id {
			dst++
		}
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: dst, Tag: 1, Payload: int64(id)}
	case k < 2*(s.p-1):
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

// TestReplayHorizonCounters pins the replay's event ring to the
// spreading rule's reach on an E17-shaped all-to-all (p = 1024, E9's
// machine, Fold 2): every hot-spot arrival spread past its cycle
// boundary must land in a ring bucket, none in the overflow heap. A
// ring sized to two cycles plus the latency window sends nearly every
// one of the 1,047,552 messages through the heap.
func TestReplayHorizonCounters(t *testing.T) {
	const p = 1024
	sim := &LogPOnBSP{LogP: logp.Params{P: p, L: 16, O: 1, G: 4}, Fold: 2}
	res, err := sim.RunScript(&countExchange{p: p, step: make([]int32, p)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != p*(p-1) {
		t.Fatalf("%d messages sent, want %d", res.MessagesSent, p*(p-1))
	}
	c := sim.eng.events.Counts()
	if c.OverflowPushes != 0 {
		t.Errorf("%d arrivals took the overflow heap, want 0: %+v", c.OverflowPushes, c)
	}
	if c.RingPushes != res.MessagesSent {
		t.Errorf("%d ring pushes for %d messages, want one each", c.RingPushes, res.MessagesSent)
	}
}
