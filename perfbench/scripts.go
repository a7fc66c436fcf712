package main

import (
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/stats"
)

// The benchmark's own scale scripts. They are written against the
// public API of logp, core and relation only, so the benchmark can
// wrap every call it makes into those modules in a span. Each one
// imitates a scale experiment of the bench registry (E14 to E17);
// e14Table to e17Table render them as the registry's tables at
// p = 1024, and the run compares those with the registry's checked-in
// goldens, which pins the scripts to the experiments they stand for.
//
// A script's per-processor state is allocated once; reset rewinds it
// so the next run starts afresh, and the timed passes reuse one script
// per workload instead of allocating the benchmark's own state anew.

// replayLogP are the guest parameters of the E14/E15 scripts.
func replayLogP(p int) logp.Params { return logp.Params{P: p, L: 32, O: 2, G: 4} }

// randLogP are the guest parameters of the E16 script: capacity
// ceil(L/G) = 20, the premise of Theorem 3 up to p = 10^6.
func randLogP(p int) logp.Params { return logp.Params{P: p, L: 40, O: 1, G: 2} }

// bucketLogP is E9's machine, which E17 and the bucket script reuse.
func bucketLogP(p int) logp.Params { return logp.Params{P: p, L: 16, O: 1, G: 4} }

const (
	ringRounds  = 2 // E14's ring rounds
	randWindow  = 8 // E16's send window
	bucketKeys  = 8 // E17's keys per processor
	bucketRange = 1 << 16
	goldenProcs = 1024
	goldenSeed  = 1
	replayFold  = 2 // E17 replays on p/2 hosts with the closed-form extension
)

// resetScript is a script that can be rewound for another run.
type resetScript interface {
	logp.Script
	reset()
}

// ringScript pipelines rounds messages around the ring (E14 "ring").
type ringScript struct {
	p, rounds int
	step      []int32
}

func newRingScript(p, rounds int) *ringScript {
	return &ringScript{p: p, rounds: rounds, step: make([]int32, p)}
}

func (s *ringScript) reset() { clear(s.step) }

func (s *ringScript) Active(int) bool { return true }

func (s *ringScript) Next(id int, _ logp.ScriptResult) logp.ScriptOp {
	k := int(s.step[id])
	s.step[id]++
	switch {
	case s.p == 1:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	case k < s.rounds:
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: (id + 1) % s.p, Tag: int32(k), Payload: int64(id)}
	case k < 2*s.rounds:
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

// bcastScript broadcasts from processor 0 by span halving (E14
// "bcast"); only processor 0 is active, the rest wake on delivery.
type bcastScript struct {
	p  int
	hi []int64 // -1 untouched, -2 awaiting its span, else the span's top
}

func newBcastScript(p int) *bcastScript {
	s := &bcastScript{p: p, hi: make([]int64, p)}
	s.reset()
	return s
}

func (s *bcastScript) reset() {
	for i := range s.hi {
		s.hi[i] = -1
	}
}

func (s *bcastScript) Active(id int) bool { return id == 0 }

func (s *bcastScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	switch s.hi[id] {
	case -1:
		if id != 0 {
			s.hi[id] = -2
			return logp.ScriptOp{Kind: logp.ScriptRecv}
		}
		s.hi[id] = int64(s.p - 1)
	case -2:
		s.hi[id] = prev.Msg.Payload
	}
	h := s.hi[id]
	if h <= int64(id) {
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	mid := int64(id) + (h-int64(id)+1)/2
	s.hi[id] = mid - 1
	return logp.ScriptOp{Kind: logp.ScriptSend, Dst: int(mid), Payload: h}
}

// barrierScript is E15's combine-and-broadcast barrier on the complete
// d-ary tree in BFS layout.
type barrierScript struct {
	p, d int
	step []int32
}

func newBarrierScript(p, d int) *barrierScript {
	return &barrierScript{p: p, d: d, step: make([]int32, p)}
}

func (s *barrierScript) children(id int) (lo, n int) {
	lo = s.d*id + 1
	if lo < s.p {
		n = min(s.p-lo, s.d)
	}
	return lo, n
}

func (s *barrierScript) Active(id int) bool {
	_, n := s.children(id)
	return n == 0
}

func (s *barrierScript) Next(id int, _ logp.ScriptResult) logp.ScriptOp {
	lo, c := s.children(id)
	k := int(s.step[id])
	s.step[id]++
	if id == 0 {
		switch {
		case k < c:
			return logp.ScriptOp{Kind: logp.ScriptRecv}
		case k < 2*c:
			return logp.ScriptOp{Kind: logp.ScriptSend, Dst: lo + (k - c), Tag: 2}
		default:
			return logp.ScriptOp{Kind: logp.ScriptHalt}
		}
	}
	switch {
	case k < c:
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	case k == c:
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: (id - 1) / s.d, Tag: 1}
	case k == c+1:
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	case k < 2*c+2:
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: lo + (k - c - 2), Tag: 2}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

// routeScript routes E15's class-scheduled cyclic-shift h-relation:
// message j of processor id follows the 1-relation i -> i+1+j, taken
// from relation.CyclicShiftStream, and sends run at most w messages
// ahead of receives.
type routeScript struct {
	p, h, w    int
	sent, rcvd []int32
	pairs      int64
}

func newRouteScript(p, h, w int) *routeScript {
	return &routeScript{p: p, h: h, w: max(w, 1), sent: make([]int32, p), rcvd: make([]int32, p)}
}

func (s *routeScript) reset() {
	clear(s.sent)
	clear(s.rcvd)
	s.pairs = 0
}

func (s *routeScript) Active(int) bool { return true }

func (s *routeScript) Next(id int, _ logp.ScriptResult) logp.ScriptOp {
	switch sent, rcvd := int(s.sent[id]), int(s.rcvd[id]); {
	case s.p == 1:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	case sent < s.h && sent-rcvd < s.w:
		s.sent[id]++
		s.pairs++
		dst := relation.NewCyclicShiftStream(s.p, 1+sent).Pair(id, 0).Dst
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: dst, Tag: int32(sent), Payload: int64(id)}
	case rcvd < s.h:
		s.rcvd[id]++
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

// randScript routes E16's random h-relation: message k of processor id
// goes to permutation k's image of id. Fixed points are skipped, which
// keeps sends and receives balanced because a permutation fixes id
// exactly when its inverse does.
type randScript struct {
	p, h, w        int
	rel            *relation.RandomRegularStream
	k, issued, got []int32
	pairs          int64
}

func newRandScript(rel *relation.RandomRegularStream, w int) *randScript {
	p := rel.P()
	return &randScript{
		p: p, h: rel.H(), w: max(w, 1), rel: rel,
		k: make([]int32, p), issued: make([]int32, p), got: make([]int32, p),
	}
}

// reset rewinds the script over its relation, which the caller may
// have redrawn at the same p and h.
func (s *randScript) reset() {
	clear(s.k)
	clear(s.issued)
	clear(s.got)
	s.pairs = 0
}

func (s *randScript) Active(int) bool { return true }

func (s *randScript) Next(id int, _ logp.ScriptResult) logp.ScriptOp {
	if s.p == 1 {
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	for {
		k, issued, got := int(s.k[id]), int(s.issued[id]), int(s.got[id])
		switch {
		case k < s.h && issued-got < s.w:
			s.k[id]++
			s.pairs++
			dst := s.rel.Pair(id, k).Dst
			if dst == id {
				continue
			}
			s.issued[id]++
			return logp.ScriptOp{Kind: logp.ScriptSend, Dst: dst, Tag: int32(k), Payload: int64(id)}
		case k < s.h || got < issued:
			s.got[id]++
			return logp.ScriptOp{Kind: logp.ScriptRecv}
		default:
			return logp.ScriptOp{Kind: logp.ScriptHalt}
		}
	}
}

// randMessages counts the non-fixed-point pairs of rel: the number of
// messages randScript sends over it.
func randMessages(rel *relation.RandomRegularStream) int64 {
	var n int64
	for id := 0; id < rel.P(); id++ {
		for k := 0; k < rel.H(); k++ {
			if rel.Pair(id, k).Dst != id {
				n++
			}
		}
	}
	return n
}

// skewedKeys draws E9/E17's keys: perProc keys per processor in
// [0, keyRange), skew percent of them in processor 0's bucket, from an
// RNG seeded seed+skew.
func skewedKeys(seed uint64, p, perProc, skew, keyRange int) [][]int64 {
	rng := stats.NewRNG(seed + uint64(skew))
	keys := make([][]int64, p)
	for i := range keys {
		keys[i] = make([]int64, perProc)
		for j := range keys[i] {
			if rng.Intn(100) < skew {
				keys[i][j] = int64(rng.Uint64n(uint64(keyRange) / uint64(p)))
			} else {
				keys[i][j] = int64(rng.Uint64n(uint64(keyRange)))
			}
		}
	}
	return keys
}

// bucketScript is E17's one-pass bucket redistribution: count, send
// every other processor its count, send each key to its bucket's owner,
// receive until the local bucket is full, then sort locally. The keys
// and their per-bucket counts are fixed at construction; reset rewinds
// only the per-processor progress.
type bucketScript struct {
	p, keyRange int
	keys        [][]int64
	counts      [][]int64 // counts[id][j]: keys of id bound for bucket j

	phase                []int8
	idx                  []int32
	incoming, kept, gotN []int64
}

func newBucketScript(keys [][]int64, keyRange int) *bucketScript {
	p := len(keys)
	s := &bucketScript{
		p: p, keyRange: keyRange, keys: keys,
		counts:   make([][]int64, p),
		phase:    make([]int8, p),
		idx:      make([]int32, p),
		incoming: make([]int64, p),
		kept:     make([]int64, p),
		gotN:     make([]int64, p),
	}
	for id := range keys {
		c := make([]int64, p)
		for _, k := range keys[id] {
			c[s.bucketOf(k)]++
		}
		s.counts[id] = c
	}
	return s
}

func (s *bucketScript) reset() {
	clear(s.phase)
	clear(s.idx)
	clear(s.incoming)
	clear(s.kept)
	clear(s.gotN)
}

func (s *bucketScript) bucketOf(k int64) int {
	return min(int(k*int64(s.p)/int64(s.keyRange)), s.p-1)
}

func (s *bucketScript) Active(int) bool { return true }

func (s *bucketScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	for {
		switch s.phase[id] {
		case 0: // local counting pass
			s.phase[id] = 1
			return logp.ScriptOp{Kind: logp.ScriptCompute, N: int64(len(s.keys[id]))}
		case 1: // send the per-bucket counts
			if int(s.idx[id]) == id {
				s.idx[id]++
			}
			if j := int(s.idx[id]); j < s.p {
				s.idx[id]++
				return logp.ScriptOp{Kind: logp.ScriptSend, Dst: j, Tag: 1, Payload: s.counts[id][j]}
			}
			s.incoming[id] = s.counts[id][id]
			s.idx[id] = 0
			if s.p > 1 {
				s.phase[id] = 2
				return logp.ScriptOp{Kind: logp.ScriptRecv}
			}
			s.phase[id] = 3
		case 2: // a count arrived
			s.incoming[id] += prev.Msg.Payload
			s.idx[id]++
			if int(s.idx[id]) < s.p-1 {
				return logp.ScriptOp{Kind: logp.ScriptRecv}
			}
			s.phase[id] = 3
			s.idx[id] = 0
		case 3: // keep local keys, send the rest
			keys := s.keys[id]
			for int(s.idx[id]) < len(keys) {
				k := keys[s.idx[id]]
				s.idx[id]++
				if b := s.bucketOf(k); b != id {
					return logp.ScriptOp{Kind: logp.ScriptSend, Dst: b, Tag: 2, Payload: k}
				}
				s.kept[id]++
			}
			s.phase[id] = 4
		case 4: // receive until the bucket holds its incoming keys
			if s.kept[id]+s.gotN[id] < s.incoming[id] {
				s.phase[id] = 5
				return logp.ScriptOp{Kind: logp.ScriptRecv}
			}
			s.phase[id] = 6
		case 5:
			s.gotN[id]++
			s.phase[id] = 4
		case 6: // local sort, charged as E9 charges it
			s.phase[id] = 7
			return logp.ScriptOp{Kind: logp.ScriptCompute, N: s.incoming[id] * 6}
		default:
			return logp.ScriptOp{Kind: logp.ScriptHalt}
		}
	}
}

// newMachine builds a native LogP machine the way the registry's scale
// experiments configure theirs.
func newMachine(lp logp.Params, policy logp.DeliveryPolicy, accept logp.AcceptOrder, seed uint64) *logp.Machine {
	return logp.NewMachine(lp, logp.WithDeliveryPolicy(policy), logp.WithAcceptOrder(accept), logp.WithSeed(seed))
}

func e14Table(p int, _ uint64) (*bench.Table, error) {
	lp := replayLogP(p)
	t := &bench.Table{
		ID:      "E14",
		Title:   fmt.Sprintf("Scale: Theorem 1 at p=%d (sparse script engines)", p),
		Columns: []string{"workload", "p", "logp-T", "msgs", "bsp-T", "cycles", "maxH", "slowdown"},
		Notes: []string{
			"logp-T: native sparse LogP time; bsp-T: scripted Theorem 1 cycle replay",
			"slowdown = bsp-T / logp-T, O(1 + g/G + l/L) for stall-free programs at every p",
		},
	}
	for _, w := range []struct {
		name string
		mk   func() logp.Script
	}{
		{"ring", func() logp.Script { return newRingScript(p, ringRounds) }},
		{"bcast", func() logp.Script { return newBcastScript(p) }},
	} {
		native, err := newMachine(lp, logp.DeliverMaxLatency, logp.AcceptFIFO, 1).RunScript(w.mk())
		if err != nil {
			return nil, err
		}
		rep, err := (&core.LogPOnBSP{LogP: lp}).RunScript(w.mk())
		if err != nil {
			return nil, err
		}
		slow := float64(rep.BSPTime) / float64(native.Time)
		t.AddRow(w.name, p, native.Time, rep.MessagesSent, rep.BSPTime, rep.Cycles, rep.MaxCycleH, slow)
	}
	return t, nil
}

func e15Table(p int, _ uint64) (*bench.Table, error) {
	lp := replayLogP(p)
	bp := bsp.Params{P: p, G: lp.G, L: lp.L}
	d := collective.TreeArity(lp)
	capacity := lp.Capacity()
	t := &bench.Table{
		ID:      "E15",
		Title:   fmt.Sprintf("Scale: Theorem 2 regimes at p=%d (superstep on sparse LogP)", p),
		Columns: []string{"p", "h", "route-T", "barrier-T", "step-T", "bsp-T", "S-route", "S", "S-ref"},
		Notes: []string{
			fmt.Sprintf("d-ary CB barrier with d = ceil(L/G) = %d; route: class-scheduled cyclic shifts", d),
			"S-route = route-T / (g*h + l): the p-independent O(1) regime",
			"S = step-T / (g*h + l); S-ref = L*log2(p) / ((G*h+L)*log2(1+ceil(L/G)))",
			"the barrier's L*log_d(p) term keeps S = O(log p) at small h and washes out as G*h grows",
		},
	}
	m := newMachine(lp, logp.DeliverMaxLatency, logp.AcceptFIFO, 1)
	bar, err := m.RunScript(newBarrierScript(p, d))
	if err != nil {
		return nil, err
	}
	for _, h := range []int{1, int(capacity), 4 * int(capacity)} {
		var route int64
		if p > 1 {
			res, err := m.RunScript(newRouteScript(p, h, int(capacity)))
			if err != nil {
				return nil, err
			}
			route = res.Time
		}
		step := route + bar.Time
		bspT := bsp.SuperstepCost{H: int64(h)}.Time(bp)
		sref := float64(lp.L) * math.Log2(float64(p)) /
			((float64(lp.G)*float64(h) + float64(lp.L)) * math.Log2(1+float64(capacity)))
		t.AddRow(p, h, route, bar.Time, step, bspT, float64(route)/float64(bspT), float64(step)/float64(bspT), sref)
	}
	return t, nil
}

func e16Table(p int, seed uint64) (*bench.Table, error) {
	const seeds = 3
	lp := randLogP(p)
	capacity := int(lp.Capacity())
	t := &bench.Table{
		ID:      "E16",
		Title:   fmt.Sprintf("Scale: Theorem 3 randomized routing at p=%d (sparse script engine)", p),
		Columns: []string{"p", "h", "G*h", "logp-T", "T/(G*h)", "stall-runs", "chernoff-bound"},
		Notes: []string{
			fmt.Sprintf("capacity ceil(L/G) = %d >= log2(p) as the theorem requires", capacity),
			"logp-T: worst completion time over the seed sweep, native sparse engine, DeliverRandom/AcceptRandom",
			"T/(G*h) must stay O(1) in p for the theorem's regime; chernoff-bound is the failure probability of beta = 1",
		},
	}
	rng := stats.NewRNG(seed)
	rel := &relation.RandomRegularStream{}
	m := newMachine(lp, logp.DeliverRandom, logp.AcceptRandom, seed)
	for _, h := range []int{capacity, 2 * capacity} {
		var worst int64
		stallRuns := 0
		for s := 0; s < seeds; s++ {
			rel.Reset(rng, p, h)
			m.SetSeed(seed + uint64(s))
			res, err := m.RunScript(newRandScript(rel, randWindow))
			if err != nil {
				return nil, err
			}
			worst = max(worst, res.Time)
			if res.StallEvents > 0 {
				stallRuns++
			}
		}
		gh := lp.GapTime(int64(h))
		bound := stats.Theorem3FailureBound(p, h, capacity, 1.0)
		t.AddRow(p, h, gh, worst, float64(worst)/float64(gh), fmt.Sprintf("%d/%d", stallRuns, seeds), bound)
	}
	return t, nil
}

func e17Table(p int, seed uint64) (*bench.Table, error) {
	lp := bucketLogP(p)
	t := &bench.Table{
		ID:      "E17",
		Title:   fmt.Sprintf("Scale: sorting-based extension at p=%d (bucket exchange in Script form)", p),
		Columns: []string{"p", "keys", "skew%", "logp-T", "stall-events", "bsp-T", "ext-T", "cap-viol"},
		Notes: []string{
			"logp-T: native sparse engine; bsp-T/ext-T: scripted Theorem 1 cycle replay (Fold 2, closed-form extension)",
			"the all-to-all count exchange overloads replay cycles, so ext-T > bsp-T charges the Section 3 sorting-based preprocessing",
		},
	}
	for _, skew := range []int{0, 90} {
		keys := skewedKeys(seed, p, bucketKeys, skew, bucketRange)
		native, err := newMachine(lp, logp.DeliverMinLatency, logp.AcceptFIFO, seed).RunScript(newBucketScript(keys, bucketRange))
		if err != nil {
			return nil, err
		}
		rep, err := (&core.LogPOnBSP{LogP: lp, Fold: replayFold}).RunScript(newBucketScript(keys, bucketRange))
		if err != nil {
			return nil, err
		}
		t.AddRow(p, p*bucketKeys, skew, native.Time, native.StallEvents, rep.BSPTime, rep.ExtensionTime, rep.CapacityViolations)
	}
	return t, nil
}
