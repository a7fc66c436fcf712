package bench

import (
	"fmt"
	"strings"

	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/stats"
)

// Large-p scale experiments (E14, E15). They drive the coroutine-free
// logp.Script engines — lazy instantiation, recycling, O(active)
// memory — at processor counts the Program form cannot reach (a parked
// coroutine per guest costs gigabytes at p = 10^6). Every table column
// is a simulated quantity, so the tables are byte-for-byte
// deterministic; host-side measurements (events/sec, bytes/proc) are
// reported by -bench, not here.
//
// The scripts keep all per-processor state in slices indexed by the
// processor id, so Next(id, ...) touches only processor id's slots —
// the procshare discipline.

// scaleLogP are the guest parameters of the scale experiments:
// capacity ceil(L/G) = 8, the CB tree arity of the Theorem 2 barrier.
func scaleLogP(p int) logp.Params {
	return logp.Params{P: p, L: 32, O: 2, G: 4}
}

// scaleRingScript pipelines rounds messages around the ring. Every
// processor has startup work, so this is the all-active worst case for
// the sparse engine: the win here is coroutine-free execution, not
// laziness.
type scaleRingScript struct {
	p, rounds int
	step      []int32
}

func newScaleRingScript(p, rounds int) *scaleRingScript {
	return &scaleRingScript{p: p, rounds: rounds, step: make([]int32, p)}
}

func (s *scaleRingScript) Active(int) bool { return true }

// Next is the per-operation transition the scripted engines drive; it must stay O(1) and allocation-free.
//
//hot:path per-event dynamic-dispatch target: its own mark, since hotness does not propagate through interfaces
func (s *scaleRingScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
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

// scaleBcastScript broadcasts from processor 0 by binary span-halving:
// the owner of span [id, hi] hands the upper half [mid, hi] to
// processor mid and keeps [id, mid-1]. Only processor 0 is active —
// every other guest is a zero-byte template until its message arrives,
// and halts (recycling its record) after forwarding, so the live set
// tracks the broadcast frontier instead of p.
type scaleBcastScript struct {
	p int
	// hi[id]: -1 = untouched, -2 = awaiting the spanning message,
	// otherwise the top of the span processor id still owns.
	hi []int64
}

func newScaleBcastScript(p int) *scaleBcastScript {
	s := &scaleBcastScript{p: p, hi: make([]int64, p)}
	for i := range s.hi {
		s.hi[i] = -1
	}
	return s
}

func (s *scaleBcastScript) Active(id int) bool { return id == 0 }

// Next is the per-operation transition the scripted engines drive; it must stay O(1) and allocation-free.
//
//hot:path per-event dynamic-dispatch target: its own mark, since hotness does not propagate through interfaces
func (s *scaleBcastScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	switch s.hi[id] {
	case -1:
		if id != 0 {
			s.hi[id] = -2
			return logp.ScriptOp{Kind: logp.ScriptRecv}
		}
		s.hi[id] = int64(s.p - 1) // id == 0 here: still a per-proc slot
	case -2:
		s.hi[id] = prev.Msg.Payload
	}
	h := s.hi[id]
	if h <= int64(id) {
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	mid := int64(id) + (h-int64(id)+1)/2
	s.hi[id] = mid - 1
	return logp.ScriptOp{Kind: logp.ScriptSend, Dst: int(mid), Tag: 0, Payload: h}
}

// scaleBarrierScript is a combine-and-broadcast barrier on the
// complete d-ary tree in BFS layout: leaves report up, the root turns
// around, and the acknowledgement floods down. Interior nodes are
// passive (their first operations are the Recvs of their children's
// reports), so at any instant only the active frontier of the tree is
// materialized.
type scaleBarrierScript struct {
	p, d int
	step []int32
}

func newScaleBarrierScript(p, d int) *scaleBarrierScript {
	return &scaleBarrierScript{p: p, d: d, step: make([]int32, p)}
}

func (s *scaleBarrierScript) children(id int) (lo, n int) {
	lo = s.d*id + 1
	if lo < s.p {
		n = s.p - lo
		if n > s.d {
			n = s.d
		}
	}
	return lo, n
}

func (s *scaleBarrierScript) Active(id int) bool {
	_, n := s.children(id)
	return n == 0
}

// Next is the per-operation transition the scripted engines drive; it must stay O(1) and allocation-free.
//
//hot:path per-event dynamic-dispatch target: its own mark, since hotness does not propagate through interfaces
func (s *scaleBarrierScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	lo, c := s.children(id)
	k := int(s.step[id])
	s.step[id]++
	if id == 0 {
		switch {
		case k < c: // combine: one report per child
			return logp.ScriptOp{Kind: logp.ScriptRecv}
		case k < 2*c: // broadcast the acknowledgement
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

// scaleRouteScript realizes the cyclic-shift h-relation: processor id
// submits its j-th message to (id + 1 + j) mod p, so every processor
// sends and receives exactly h messages. Sends run ahead of receives
// by at most the window w: a processor sends eagerly while fewer than
// w of its messages are unacknowledged by its own receive count, then
// drains one before sending more. With w = ceil(L/G) (the capacity)
// the window hides the latency completely — a message is w rounds old
// when its receive is issued, and a round costs at least 2G (send and
// acquire share the per-processor gap stream), so w*2G >= 2L — while
// bounding the in-flight message population by p*w instead of p*h.
// Submitting all h messages up front would materialize every record of
// the relation at once, ~10 GB at p=10^6, h=32; the window keeps the
// same class-scheduled, stall-free routing at O(p*capacity) memory.
type scaleRouteScript struct {
	p, h, w    int
	sent, rcvd []int32
}

func newScaleRouteScript(p, h, w int) *scaleRouteScript {
	if w < 1 {
		w = 1
	}
	return &scaleRouteScript{p: p, h: h, w: w, sent: make([]int32, p), rcvd: make([]int32, p)}
}

func (s *scaleRouteScript) Active(int) bool { return true }

// Next is the per-operation transition the scripted engines drive; it must stay O(1) and allocation-free.
//
//hot:path per-event dynamic-dispatch target: its own mark, since hotness does not propagate through interfaces
func (s *scaleRouteScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	switch sent, rcvd := int(s.sent[id]), int(s.rcvd[id]); {
	case s.p == 1:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	case sent < s.h && sent-rcvd < s.w:
		s.sent[id]++
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: (id + 1 + sent) % s.p, Tag: int32(sent), Payload: int64(id)}
	case rcvd < s.h:
		s.rcvd[id]++
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

// scaleRandScript routes the Theorem 3 workload: the h-relation formed
// by superimposing h random permutations (relation.RandomRegularStream),
// processor id's k-th message going to permutation k's image of id.
// Like scaleRouteScript, sends run at most the window w ahead of
// receives, bounding the in-flight record population by p*w while the
// stalling rule absorbs whatever fan-in the random draws produce.
//
// Fixed points of a permutation would be self-sends, which the LogP
// interface rejects; the script skips them locally. That stays
// balanced because id receives permutation k's message iff
// perm_k^-1(id) != id, and a permutation fixes id exactly when its
// inverse does — so id expects precisely as many messages as it
// really sends, and the drain phase runs receives until the two
// counters meet.
//
// All per-processor state lives in id-indexed slots; the stream is
// shared read-only (Pair is a pure lookup), which the procshare
// discipline permits.
type scaleRandScript struct {
	p, h, w int
	rel     *relation.RandomRegularStream
	// Per processor: k scans the permutation index, issued counts real
	// (non-self) sends, got counts completed receives.
	k, issued, got []int32
}

func newScaleRandScript(rel *relation.RandomRegularStream, w int) *scaleRandScript {
	p, h := rel.P(), rel.H()
	if w < 1 {
		w = 1
	}
	return &scaleRandScript{
		p: p, h: h, w: w, rel: rel,
		k: make([]int32, p), issued: make([]int32, p), got: make([]int32, p),
	}
}

func (s *scaleRandScript) Active(int) bool { return true }

// Next is the per-operation transition the scripted engines drive; it must stay O(1) and allocation-free.
//
//hot:path per-event dynamic-dispatch target: its own mark, since hotness does not propagate through interfaces
func (s *scaleRandScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	if s.p == 1 {
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	for {
		k, issued, got := int(s.k[id]), int(s.issued[id]), int(s.got[id])
		switch {
		case k < s.h && issued-got < s.w:
			s.k[id]++
			dst := s.rel.Pair(id, k).Dst
			if dst == id {
				// Fixed point: no message to route, and by the inverse
				// symmetry one fewer message to expect.
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

// runScaleScript executes a script on a native LogP machine with the
// default policy and seed (warm configs reuse a pooled machine; see
// Config.scriptMachine).
func runScaleScript(cfg Config, lp logp.Params, s logp.Script) logp.Result {
	res, err := cfg.scriptMachine(lp, logp.DeliverMaxLatency, logp.AcceptFIFO, 1).RunScript(s)
	must(err)
	return res
}

// E14Scale regenerates Theorem 1 at large p: ring and broadcast
// workloads run natively on the sparse LogP engine and replayed on BSP
// by the scripted cycle engine, with the measured slowdown against the
// guest time. The replay is stall-free for both workloads, so the
// slowdown stays O(1 + g/G + l/L) independent of p.
func E14Scale(procs int) func(Config) *Table {
	return func(cfg Config) *Table {
		p := procs
		if cfg.Quick {
			p = min(p, quickScaleProcs)
		}
		lp := scaleLogP(p)
		t := &Table{
			ID:      "E14",
			Title:   fmt.Sprintf("Scale: Theorem 1 at p=%d (sparse script engines)", p),
			Columns: []string{"workload", "p", "logp-T", "msgs", "bsp-T", "cycles", "maxH", "slowdown"},
			Notes: []string{
				"logp-T: native sparse LogP time; bsp-T: scripted Theorem 1 cycle replay",
				"slowdown = bsp-T / logp-T, O(1 + g/G + l/L) for stall-free programs at every p",
			},
		}
		workloads := []struct {
			name string
			mk   func() logp.Script
		}{
			{"ring", func() logp.Script { return newScaleRingScript(p, 2) }},
			{"bcast", func() logp.Script { return newScaleBcastScript(p) }},
		}
		for _, w := range workloads {
			native := runScaleScript(cfg, lp, w.mk())
			sim := cfg.thm1(core.LogPOnBSP{LogP: lp})
			rep, err := sim.RunScript(w.mk())
			must(err)
			slow := float64(rep.BSPTime) / float64(native.Time)
			t.AddRow(w.name, p, native.Time, rep.MessagesSent, rep.BSPTime, rep.Cycles, rep.MaxCycleH, slow)
		}
		return t
	}
}

// E15Scale regenerates Theorem 2's slowdown regimes at large p: one
// BSP superstep (an h-relation plus barrier) executes on the native
// LogP machine as class-scheduled routing followed by the d-ary CB
// barrier, and is charged against the analytic BSP superstep cost
// w + g*h + l with matched parameters. For h large enough that G*h
// dominates L*log p the slowdown flattens to O(1); for small h the
// barrier's L*log_d(p) term dominates and the slowdown follows
// O(L*log p / ((G*h + L)*log(1 + ceil(L/G)))), growing with p — the
// paper's two regimes, separated on one machine.
func E15Scale(procs int) func(Config) *Table {
	return func(cfg Config) *Table {
		p := procs
		if cfg.Quick {
			p = min(p, quickScaleProcs)
		}
		lp := scaleLogP(p)
		bp := bsp.Params{P: p, G: lp.G, L: lp.L}
		d := collective.TreeArity(lp)
		capacity := lp.Capacity()
		t := &Table{
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
		barrier := runScaleScript(cfg, lp, newScaleBarrierScript(p, d)).Time
		for _, h := range []int{1, int(capacity), 4 * int(capacity)} {
			route := int64(0)
			if p > 1 {
				route = runScaleScript(cfg, lp, newScaleRouteScript(p, h, int(capacity))).Time
			}
			step := route + barrier
			bspT := bsp.SuperstepCost{W: 0, H: int64(h)}.Time(bp)
			sroute := float64(route) / float64(bspT)
			s := float64(step) / float64(bspT)
			//lint:ignore costcharge dimensionless Theorem 2 reference curve, not a cost charge
			sref := float64(lp.L) * log2f(float64(p)) /
				((float64(lp.G)*float64(h) + float64(lp.L)) * log2f(1+float64(capacity)))
			t.AddRow(p, h, route, barrier, step, bspT, sroute, s, sref)
		}
		return t
	}
}

// scaleRandLogP are the guest parameters of the randomized-routing
// scale experiment: capacity ceil(L/G) = 20 >= log2(10^6) ≈ 19.93, the
// premise Theorem 3 needs at the largest processor count.
func scaleRandLogP(p int) logp.Params {
	return logp.Params{P: p, L: 40, O: 1, G: 2}
}

// E16Scale regenerates Theorem 3 at large p: the h-relation formed by
// h random permutations routes natively on the sparse script engine
// under DeliverRandom/AcceptRandom, and the worst completion time over
// the seed sweep is charged against the G*h bound. The permutations
// are redrawn into one retained flat buffer per seed
// (RandomRegularStream.Reset) and the machine is pooled when warm, so
// a p = 10^6 trial's steady-state footprint is the stream (4 bytes per
// message) plus the windowed in-flight records — the same O(p*w)
// budget as E15's routes, not O(p*h).
func E16Scale(procs int) func(Config) *Table {
	return func(cfg Config) *Table {
		p := procs
		seeds := 3
		if cfg.Quick {
			seeds = 2
			p = min(p, quickScaleProcs)
		}
		lp := scaleRandLogP(p)
		capacity := int(lp.Capacity())
		t := &Table{
			ID:      "E16",
			Title:   fmt.Sprintf("Scale: Theorem 3 randomized routing at p=%d (sparse script engine)", p),
			Columns: []string{"p", "h", "G*h", "logp-T", "T/(G*h)", "stall-runs", "chernoff-bound"},
			Notes: []string{
				fmt.Sprintf("capacity ceil(L/G) = %d >= log2(p) as the theorem requires", capacity),
				"logp-T: worst completion time over the seed sweep, native sparse engine, DeliverRandom/AcceptRandom",
				"T/(G*h) must stay O(1) in p for the theorem's regime; chernoff-bound is the failure probability of beta = 1",
			},
		}
		rng := stats.NewRNG(cfg.Seed)
		rel := &relation.RandomRegularStream{}
		for _, h := range []int{capacity, 2 * capacity} {
			var worst int64
			stallRuns := 0
			for s := 0; s < seeds; s++ {
				rel.Reset(rng, p, h)
				sc := newScaleRandScript(rel, scaleRandWindow)
				m := cfg.scriptMachine(lp, logp.DeliverRandom, logp.AcceptRandom, cfg.Seed+uint64(s))
				res, err := m.RunScript(sc)
				must(err)
				if res.Time > worst {
					worst = res.Time
				}
				if res.StallEvents > 0 {
					stallRuns++
				}
			}
			gh := lp.GapTime(int64(h))
			bound := stats.Theorem3FailureBound(p, h, capacity, 1.0)
			t.AddRow(p, h, gh, worst, float64(worst)/float64(gh), fmt.Sprintf("%d/%d", stallRuns, seeds), bound)
		}
		return t
	}
}

// scaleRandWindow is E16's send window: sends run at most this many
// messages ahead of receives, bounding in-flight records by p*w.
const scaleRandWindow = 8

// E17Scale runs the sorting-based workload (E9's bucket-sort
// redistribution, ported to Script form as bucketSortScript) at a
// processor count the coroutine Program form would not want to pay
// for, natively on the sparse engine and replayed through the scripted
// Theorem 1 cycle engine. The skewed key distribution overloads the
// replay's cycles, so the table exercises the sorting-based stalling
// extension (end of Section 3) in Script form: ExtensionTime charges
// the closed-form O(log p)-supersteps preprocessing per overloaded
// cycle (Fold: 2 selects the formula charge — the executed bitonic
// preprocessing is a per-cycle p-processor BSP program, priced for E9
// counts, not for thousands of processors; the golden tests pin the
// executed form's Script/Program equality at the E9 configuration).
//
// The workload's count exchange is an all-to-all (p-1 messages per
// processor), so unlike E14-E16 this experiment scales as p², which
// caps its registered sizes at p = 2048.
func E17Scale(procs int) func(Config) *Table {
	return func(cfg Config) *Table {
		p := procs
		if cfg.Quick {
			p = min(p, e17QuickProcs)
		}
		const perProc = 8
		keyRange := 1 << 16
		lp := logp.Params{P: p, L: 16, O: 1, G: 4} // E9's machine, E9-style skew
		t := &Table{
			ID:      "E17",
			Title:   fmt.Sprintf("Scale: sorting-based extension at p=%d (bucket exchange in Script form)", p),
			Columns: []string{"p", "keys", "skew%", "logp-T", "stall-events", "bsp-T", "ext-T", "cap-viol"},
			Notes: []string{
				"logp-T: native sparse engine; bsp-T/ext-T: scripted Theorem 1 cycle replay (Fold 2, closed-form extension)",
				"the all-to-all count exchange overloads replay cycles, so ext-T > bsp-T charges the Section 3 sorting-based preprocessing",
			},
		}
		for _, skew := range []int{0, 90} {
			keys := skewedKeys(cfg.Seed, p, perProc, skew, keyRange)
			m := cfg.scriptMachine(lp, logp.DeliverMinLatency, logp.AcceptFIFO, cfg.Seed)
			native, err := m.RunScript(newBucketSortScript(keys, keyRange))
			must(err)
			sim := cfg.thm1(core.LogPOnBSP{LogP: lp, Fold: 2})
			rep, err := sim.RunScript(newBucketSortScript(keys, keyRange))
			must(err)
			t.AddRow(p, p*perProc, skew, native.Time, native.StallEvents,
				rep.BSPTime, rep.ExtensionTime, rep.CapacityViolations)
		}
		return t
	}
}

// quickScaleProcs caps E14-E16 under Quick; e17QuickProcs caps E17,
// whose count exchange grows as p².
const (
	quickScaleProcs = 100_000
	e17QuickProcs   = 1024
)

// QuickScale lists the scale experiments a quick run selects: those
// whose size fits under their Quick cap. The p = 10^6 entries and
// E17.p2k are left out, since Quick would clamp each to the size of a
// smaller entry and run the same table again.
func QuickScale() []Experiment {
	var out []Experiment
	for _, e := range Scale() {
		limit := quickScaleProcs
		if strings.HasPrefix(e.ID, "E17.") {
			limit = e17QuickProcs
		}
		if e.Procs <= limit {
			out = append(out, e)
		}
	}
	return out
}

// Scale lists the large-p experiments at p = 10^4, 10^5, 10^6. They
// are registered separately from All(): each run is seconds of wall
// time and hundreds of megabytes of guest state, which would swamp the
// quick suite. cmd/bsplogp selects them with -scale; under -quick it
// runs QuickScale's subset.
func Scale() []Experiment {
	sizes := []struct {
		suffix string
		procs  int
	}{
		{"p10k", 10_000},
		{"p100k", 100_000},
		{"p1m", 1_000_000},
	}
	var out []Experiment
	for _, sz := range sizes {
		out = append(out,
			Experiment{
				ID:    "E14." + sz.suffix,
				Name:  fmt.Sprintf("Scale: Theorem 1 replay at p=%d", sz.procs),
				Procs: sz.procs,
				Run:   E14Scale(sz.procs),
			},
			Experiment{
				ID:    "E15." + sz.suffix,
				Name:  fmt.Sprintf("Scale: Theorem 2 regimes at p=%d", sz.procs),
				Procs: sz.procs,
				Run:   E15Scale(sz.procs),
			},
			Experiment{
				ID:    "E16." + sz.suffix,
				Name:  fmt.Sprintf("Scale: Theorem 3 randomized routing at p=%d", sz.procs),
				Procs: sz.procs,
				Run:   E16Scale(sz.procs),
			},
		)
	}
	// E17's count exchange is an all-to-all (p² messages), so its
	// ladder stops at p = 2048 instead of following the 10^4..10^6
	// sizes above.
	for _, sz := range []struct {
		suffix string
		procs  int
	}{
		{"p1k", 1024},
		{"p2k", 2048},
	} {
		out = append(out, Experiment{
			ID:    "E17." + sz.suffix,
			Name:  fmt.Sprintf("Scale: sorting-based extension (bucket exchange) at p=%d", sz.procs),
			Procs: sz.procs,
			Run:   E17Scale(sz.procs),
		})
	}
	return out
}
