package logp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current engine")

// farAheadProgram computes far longer than L between sends, so every
// submission lands well past the instant the medium is committing.
// Rounds start at fixed instants 400 apart; every fourth round all
// processors but 0 send to processor 0 at the same instant, so the
// Stalling Rule holds hot-spot submissions back, and the other rounds
// send along a shifted permutation after staggered computations.
// Arrivals are drained by polling after each send and by blocking
// receives at the end.
func farAheadProgram(pr Proc) {
	const rounds = 12
	id, p := pr.ID(), pr.P()
	want, got := 0, 0
	for r := 0; r < rounds; r++ {
		hot := r%4 == 3
		if hot && id == 0 {
			want += p - 1
		} else if !hot {
			want++
		}
		pr.WaitUntil(int64(400 * r))
		if hot {
			pr.Compute(100)
		} else {
			pr.Compute(int64(90 + 37*((id*5+r*3)%7)))
		}
		switch {
		case !hot:
			pr.Send((id+r%(p-1)+1)%p, int32(r), int64(id), int64(r))
		case id != 0:
			pr.Send(0, int32(r), int64(id), int64(r))
		}
		for {
			if _, ok := pr.TryRecv(); !ok {
				break
			}
			got++
		}
	}
	for ; got < want; got++ {
		pr.Recv()
	}
}

// formatRun renders a Result and its event trace one fact per line.
func formatRun(res Result, events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "time %d last-delivery %d sent %d stall-events %d stall-cycles %d max-buffer %d\n",
		res.Time, res.LastDelivery, res.MessagesSent, res.StallEvents, res.StallCycles, res.MaxBufferDepth)
	fmt.Fprintf(&b, "proc-times %v\n", res.ProcTimes)
	for _, e := range events {
		fmt.Fprintf(&b, "%d %s %d %d->%d tag %d payload %d aux %d\n",
			e.Time, e.Kind, e.Seq, e.Msg.Src, e.Msg.Dst, e.Msg.Tag, e.Msg.Payload, e.Msg.Aux)
	}
	return b.String()
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

// TestFarAheadProcessorsGolden pins the engine on processors that run
// far beyond the committed instant under DeliverRandom and
// AcceptRandom: the Result and the full event trace must match files
// recorded from the binary-heap engine. The processors' ready entries
// lie beyond the ready ring and take its overflow heap; the event
// queue follows the committing processor's clock, so its submissions
// still fit.
func TestFarAheadProcessorsGolden(t *testing.T) {
	params := Params{P: 8, L: 8, O: 1, G: 2}
	for _, seed := range []uint64{1, 2} {
		var events []Event
		m := NewMachine(params, WithDeliveryPolicy(DeliverRandom), WithAcceptOrder(AcceptRandom), WithSeed(seed),
			WithEventLog(func(e Event) { events = append(events, e) }))
		res, err := m.Run(farAheadProgram)
		if err != nil {
			t.Fatal(err)
		}
		if res.StallEvents == 0 {
			t.Errorf("seed %d: the hot spot never stalled", seed)
		}
		if c := m.ready.Counts(); c.OverflowPushes == 0 {
			t.Errorf("seed %d: no ready entry took the overflow path: %+v", seed, c)
		}
		checkGolden(t, fmt.Sprintf("far_ahead_seed%d.txt", seed), formatRun(res, events))
	}
}
