package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestSkewedReplayGolden pins the Theorem 1 replay of a hot-spot
// exchange whose spread-out arrivals lie far past the cycle ring: the
// Thm1Result and every guest's acquisition log must match a file
// recorded from the binary-heap engine.
func TestSkewedReplayGolden(t *testing.T) {
	lp := logp.Params{P: 64, L: 16, O: 1, G: 2}
	sim := &LogPOnBSP{LogP: lp}
	log := make([][]string, lp.P)
	res, err := sim.Run(skewedExchange(log))
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityViolations == 0 {
		t.Fatal("the hot spot never overloaded a cycle")
	}
	if c := sim.eng.events.Counts(); c.OverflowPushes == 0 {
		t.Errorf("no arrival took the overflow path: %+v", c)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "bsp %d extension %d guest %d cycles %d sent %d max-h %d violations %d\n",
		res.BSPTime, res.ExtensionTime, res.GuestTime, res.Cycles, res.MessagesSent, res.MaxCycleH, res.CapacityViolations)
	fmt.Fprintf(&b, "cycle-h %v\n", res.CycleH)
	for id, l := range log {
		fmt.Fprintf(&b, "%d: %s\n", id, strings.Join(l, " "))
	}
	checkGolden(t, "skewed_replay.txt", b.String())
}
