package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/stats"
)

// Sizes of the scale workloads. scale-route pairs E15's cyclic-shift
// route at p = 10^5 (h = capacity, the class-scheduled stall-free case)
// with E16's random relations at p = 10^4 (h = capacity and twice
// that, one trial each). scale-replay
// pairs E14's ring and broadcast at p = 10^5 with one E17 bucket
// exchange at p = 1024 and 90% key skew, the case that stalls and
// overloads replay cycles.
const (
	routeProcs  = 100_000
	randProcs   = 10_000
	replayProcs = 100_000
	bucketProcs = 1024
	bucketSkew  = 90
)

// resultKey fingerprints a native run's result, ProcTimes included.
func resultKey(r logp.Result) string {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range r.ProcTimes {
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		h.Write(b[:])
	}
	return fmt.Sprintf("T=%d last=%d msgs=%d stalls=%d stallCycles=%d maxBuf=%d procs=%x",
		r.Time, r.LastDelivery, r.MessagesSent, r.StallEvents, r.StallCycles, r.MaxBufferDepth, h.Sum64())
}

// replayKey fingerprints a Theorem 1 replay's result, every cycle's
// relation degree included.
func replayKey(r core.Thm1Result) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range r.CycleH {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("bsp=%d ext=%d guest=%d cycles=%d msgs=%d maxH=%d viol=%d cycleH=%x",
		r.BSPTime, r.ExtensionTime, r.GuestTime, r.Cycles, r.MessagesSent, r.MaxCycleH, r.CapacityViolations, h.Sum64())
}

// runNative runs s on m inside a logp span and folds the result, and
// the simulated events the run added, into c.
func runNative(rec *recorder, root int32, name string, m *logp.Machine, s logp.Script, c *layerCounts) (logp.Result, error) {
	ev0 := logp.SimEventCount()
	sp := rec.begin(root, "logp", "Machine.RunScript/"+name)
	res, err := m.RunScript(rec.guest(sp, s))
	rec.end(sp)
	c.logpEvents += logp.SimEventCount() - ev0
	c.logpMsgs += res.MessagesSent
	c.logpStalls += res.StallEvents
	c.logpMaxBuffer = max(c.logpMaxBuffer, int64(res.MaxBufferDepth))
	return res, err
}

// runReplay replays s through sim inside a core span and folds the
// result into c.
func runReplay(rec *recorder, root int32, name string, sim *core.LogPOnBSP, s logp.Script, c *layerCounts) (core.Thm1Result, error) {
	sp := rec.begin(root, "core", "LogPOnBSP.RunScript/"+name)
	res, err := sim.RunScript(rec.guest(sp, s))
	rec.end(sp)
	c.coreCycles += res.Cycles
	c.coreMsgs += res.MessagesSent
	c.coreCapacityViolations += res.CapacityViolations
	return res, err
}

// checkGoldenScale renders the scripts' E14 to E17 tables for ids at
// p = 1024, seed 1, and compares them with the registry's goldens.
func checkGoldenScale(h *harness, ids ...string) {
	mk := map[string]func(int, uint64) (*bench.Table, error){
		"E14": e14Table, "E15": e15Table, "E16": e16Table, "E17": e17Table,
	}
	for _, id := range ids {
		want, err := os.ReadFile(filepath.Join(h.root, "internal/bench/testdata", "golden_"+id+"_p1k.txt"))
		if err != nil {
			h.fail("golden %s: %v", id, err)
			continue
		}
		tab, err := mk[id](goldenProcs, goldenSeed)
		if err != nil {
			h.fail("golden %s: %v", id, err)
			continue
		}
		h.check(tab.Render() == string(want), "golden %s: the benchmark's p=1024 table differs from the registry's golden", id)
	}
}

// scaleRoute is all-active routing on the sparse Script engine.
type scaleRoute struct {
	seed          uint64
	routeM, randM *logp.Machine
	route         *routeScript
	routeMsgs     int64
	// E16's two relations, h = capacity and 2*capacity, the script
	// over each, and the message count each must deliver.
	rels     []*relation.RandomRegularStream
	rands    []*randScript
	randMsgs []int64
}

func newScaleRoute(h *harness) (passWorkload, error) {
	routeLP, randLP := replayLogP(routeProcs), randLogP(randProcs)
	routeH := int(routeLP.Capacity())
	w := &scaleRoute{
		seed:      h.seed,
		routeM:    newMachine(routeLP, logp.DeliverMaxLatency, logp.AcceptFIFO, 1),
		randM:     newMachine(randLP, logp.DeliverRandom, logp.AcceptRandom, h.seed),
		route:     newRouteScript(routeProcs, routeH, routeH),
		routeMsgs: int64(routeProcs * routeH),
	}
	for i, hh := range []int{int(randLP.Capacity()), 2 * int(randLP.Capacity())} {
		rel := relation.NewRandomRegularStream(stats.NewRNG(h.seed+uint64(i)), randProcs, hh)
		w.rels = append(w.rels, rel)
		w.rands = append(w.rands, newRandScript(rel, randWindow))
		w.randMsgs = append(w.randMsgs, randMessages(rel))
	}
	return w, nil
}

func (w *scaleRoute) procs() int { return routeProcs + 2*randProcs }

func (w *scaleRoute) pass(h *harness, rec *recorder, root int32, c *layerCounts) int {
	w.route.reset()
	w.routeM.SetSeed(1)
	res, err := runNative(rec, root, "route", w.routeM, w.route, c)
	c.relationPairs += w.route.pairs
	if err != nil {
		h.fail("route: %v", err)
	} else {
		h.check(res.MessagesSent == w.routeMsgs, "route: %d messages, want p*h = %d", res.MessagesSent, w.routeMsgs)
		h.match("route", resultKey(res))
	}

	for i, rel := range w.rels {
		name := fmt.Sprintf("rand-h%d", rel.H())
		sp := rec.begin(root, "relation", "RandomRegularStream.Reset")
		rel.Reset(stats.NewRNG(w.seed+uint64(i)), randProcs, rel.H())
		rec.end(sp)
		qs := w.rands[i]
		qs.reset()
		w.randM.SetSeed(w.seed + uint64(i))
		res, err = runNative(rec, root, name, w.randM, qs, c)
		c.relationPairs += qs.pairs
		if err != nil {
			h.fail("%s: %v", name, err)
			continue
		}
		h.check(res.MessagesSent == w.randMsgs[i], "%s: %d messages, want %d", name, res.MessagesSent, w.randMsgs[i])
		h.match(name, resultKey(res))
	}
	return 1 + len(w.rels)
}

func (w *scaleRoute) verify(h *harness) { checkGoldenScale(h, "E15", "E16") }

// scaleReplay is Theorem 1 cycle replay through core.LogPOnBSP: each
// operation runs a workload natively and replays it.
type scaleReplay struct {
	ops []replayOp
}

// replayOp is one operation of scale-replay: a script run natively on
// m, seeded seed, then replayed through sim.
type replayOp struct {
	name string
	m    *logp.Machine
	seed uint64
	sim  *core.LogPOnBSP
	s    resetScript
}

func newScaleReplay(h *harness) (passWorkload, error) {
	lp, blp := replayLogP(replayProcs), bucketLogP(bucketProcs)
	ringM := newMachine(lp, logp.DeliverMaxLatency, logp.AcceptFIFO, 1)
	thm1 := &core.LogPOnBSP{LogP: lp}
	keys := skewedKeys(h.seed, bucketProcs, bucketKeys, bucketSkew, bucketRange)
	return &scaleReplay{ops: []replayOp{
		{"ring", ringM, 1, thm1, newRingScript(replayProcs, ringRounds)},
		{"bcast", ringM, 1, thm1, newBcastScript(replayProcs)},
		{"bucket", newMachine(blp, logp.DeliverMinLatency, logp.AcceptFIFO, h.seed), h.seed,
			&core.LogPOnBSP{LogP: blp, Fold: replayFold}, newBucketScript(keys, bucketRange)},
	}}, nil
}

func (w *scaleReplay) procs() int { return 2*replayProcs + bucketProcs }

func (w *scaleReplay) pass(h *harness, rec *recorder, root int32, c *layerCounts) int {
	for _, op := range w.ops {
		op.s.reset()
		op.m.SetSeed(op.seed)
		native, err := runNative(rec, root, op.name, op.m, op.s, c)
		if err != nil {
			h.fail("%s native: %v", op.name, err)
			continue
		}
		op.s.reset()
		rep, err := runReplay(rec, root, op.name, op.sim, op.s, c)
		if err != nil {
			h.fail("%s replay: %v", op.name, err)
			continue
		}
		h.check(rep.MessagesSent == native.MessagesSent, "%s: replay sent %d messages, native %d", op.name, rep.MessagesSent, native.MessagesSent)
		h.match(op.name+"/native", resultKey(native))
		h.match(op.name+"/replay", replayKey(rep))
	}
	return len(w.ops)
}

func (w *scaleReplay) verify(h *harness) { checkGoldenScale(h, "E14", "E17") }
