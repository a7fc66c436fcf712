package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/logp"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// processStart is as close to process start as Go code can observe;
// the first set-up's host time counts from here.
var processStart = time.Now()

// cpuSeconds is the CPU time the process has used since it started, all
// threads, user and system. Every time the end-to-end metrics report is
// CPU time: on a shared host the hypervisor's steal stretches host time
// by a quarter and more from run to run, and Linux does not charge steal
// to the process. Other guests still slow the shared core and caches, so
// CPU time grows with host load too, but by far less. Host times are
// reported beside it, unbounded (see hostMetrics).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const (
	// setups is how many times a run sets up its workload from
	// scratch; setup_s is the median.
	setups = 3
	// minPasses is the least number of timed passes a run makes, even
	// when one pass outlasts the time budget.
	minPasses = 3
	// tailBeyond is the number of samples a reported tail percentile
	// must have beyond it.
	tailBeyond = 10
)

// harness carries one run: its inputs, the correctness tally, the
// reference outputs each operation is checked against, and what the
// timed passes measured.
type harness struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	root     string // checkout root, where the registry's goldens live

	attempted, failed int
	failures          []string
	ref               map[string]string

	heap   *heapSampler
	rec    *recorder // spans of the traced passes; nil when untraced
	passes []passRec
	// setupS are the set-ups' CPU seconds and setupWallS their host
	// seconds.
	setupS, setupWallS []float64
	info               map[string]any
	// openLat are the open loop's job latencies (ms) and serveLayer
	// its serve.* figures, of a workload that has one.
	openLat    []float64
	serveLayer map[string]metric

	// CPU steal and total ticks at the start of the run (see stealFrac).
	stealTicks, totalTicks uint64
	ticksOK                bool
}

func newHarness(workload string, seed uint64, budget time.Duration, traced bool, root string) *harness {
	h := &harness{
		workload: workload, seed: seed, budget: budget, traced: traced, root: root,
		ref: map[string]string{}, info: map[string]any{},
		heap: startHeapSampler(),
	}
	if traced {
		h.rec = newRecorder()
	}
	h.stealTicks, h.totalTicks, h.ticksOK = cpuTicks()
	return h
}

// check counts one checked operation and records a failure when ok is
// false.
func (h *harness) check(ok bool, format string, args ...any) {
	h.attempted++
	if !ok {
		h.failed++
		if len(h.failures) < 20 {
			h.failures = append(h.failures, fmt.Sprintf(format, args...))
		}
	}
}

// match checks got against the reference recorded under key. The first
// output seen for a key becomes its reference unless one was recorded
// beforehand (checked-in digests for the seed); every later output
// must equal it.
func (h *harness) match(key, got string) {
	want, ok := h.ref[key]
	if !ok {
		h.ref[key] = got
		h.attempted++
		return
	}
	h.check(got == want, "%s: output %.16s differs from reference %.16s", key, got, want)
}

// fail counts a failed operation that produced no output to compare.
func (h *harness) fail(format string, args ...any) { h.check(false, format, args...) }

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// heapPoll is how often the heap sampler reads the heap footprint.
const heapPoll = 5 * time.Millisecond

// heapSampler keeps the peak of HeapSys - HeapReleased, the heapSysPeak
// definition of BENCH_logp.json, read from runtime/metrics (which does
// not stop the world) every heapPoll, so transient peaks inside an
// operation count too. The peak is kept per window (see restart), so a
// run reports the median of its passes' peaks: the peak of a whole run
// hangs on when the collector happened to run in one moment of it, and
// spread by 15% between runs of the same code.
type heapSampler struct {
	mu   sync.Mutex // guards ss
	ss   []metrics.Sample
	peak atomic.Uint64
	once sync.Once
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{
		ss: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
			{Name: "/memory/classes/heap/free:bytes"},
		},
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(heapPoll)
		defer t.Stop()
		for {
			s.read()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// read samples the footprint once and raises the window's peak to it;
// it returns the peak.
func (s *heapSampler) read() uint64 {
	s.mu.Lock()
	metrics.Read(s.ss)
	held := s.ss[0].Value.Uint64() + s.ss[1].Value.Uint64() + s.ss[2].Value.Uint64()
	s.mu.Unlock()
	for {
		old := s.peak.Load()
		if held <= old || s.peak.CompareAndSwap(old, held) {
			return max(old, held)
		}
	}
}

// restart opens a new window: the peak is the current footprint.
func (s *heapSampler) restart() {
	s.peak.Store(0)
	s.read()
}

// close stops the sampler and waits for it to exit; later calls return
// at once.
func (s *heapSampler) close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// rtSample is a snapshot of the runtime counters the gc layer reports.
type rtSample struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, gcPause                     float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindFloat64Histogram:
			return histSum(v.Float64Histogram())
		}
		return 0
	}
	return rtSample{
		allocBytes: num(ss[0].Value), allocObjects: num(ss[1].Value), gcCycles: num(ss[2].Value),
		gcCPU: num(ss[3].Value), gcPause: num(ss[4].Value),
	}
}

// histSum estimates the total of a duration histogram by its bucket
// midpoints (the finite edge for the open-ended buckets).
func histSum(hist *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range hist.Counts {
		lo, hi := hist.Buckets[i], hist.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU, gcPause: a.gcPause - b.gcPause,
	}
}

func (a rtSample) plus(b rtSample) rtSample {
	return rtSample{
		allocBytes: a.allocBytes + b.allocBytes, allocObjects: a.allocObjects + b.allocObjects,
		gcCycles: a.gcCycles + b.gcCycles, gcCPU: a.gcCPU + b.gcCPU, gcPause: a.gcPause + b.gcPause,
	}
}

// passRec is what one timed pass measured.
type passRec struct {
	traced bool
	cpu    float64 // process CPU seconds
	wall   float64 // host seconds
	heap   uint64  // peak heap footprint, bytes
	steal  float64 // the host's CPU steal over the pass, -1 if unknown
	ops    int     // operations the pass ran
	events int64   // logp.SimEventCount delta
	hops   int64   // netsim.SimHopCount delta
	rt     rtSample
	counts layerCounts
}

// layerCounts are the per-pass work counts the workloads report from the
// results of their calls into logp, core and relation.
type layerCounts struct {
	logpEvents             int64 // logp.SimEventCount delta inside logp spans
	logpMsgs, logpStalls   int64
	logpMaxBuffer          int64
	coreCycles, coreMsgs   int64
	coreCapacityViolations int64
	relationPairs          int64
}

// add folds o into c: sums, and the maximum buffer depth.
func (c *layerCounts) add(o layerCounts) {
	c.logpEvents += o.logpEvents
	c.logpMsgs += o.logpMsgs
	c.logpStalls += o.logpStalls
	c.logpMaxBuffer = max(c.logpMaxBuffer, o.logpMaxBuffer)
	c.coreCycles += o.coreCycles
	c.coreMsgs += o.coreMsgs
	c.coreCapacityViolations += o.coreCapacityViolations
	c.relationPairs += o.relationPairs
}

// passWorkload is a workload made of identical timed passes.
type passWorkload interface {
	// pass runs one pass, checks every output and returns the number
	// of operations that completed. rec is nil for an untraced pass;
	// root is the pass's span.
	pass(h *harness, rec *recorder, root int32, c *layerCounts) int
	// procs is the number of guest processors one pass simulates, or 0
	// when the workload's machines are built out of the benchmark's
	// sight (bytes_per_proc is then per operation).
	procs() int
	// verify runs the once-per-run checks against the registry's
	// checked-in goldens.
	verify(h *harness)
}

// openLooper is a pass workload whose latency figures come from an open
// loop run once before the timed passes, not from the passes'
// operations (serve-mixed). Its figures are host times, reported with
// the per-layer metrics, so only a traced run offers the load.
type openLooper interface {
	// openLoop offers the load and returns each job's latency in ms.
	openLoop(h *harness) []float64
}

// closer is a pass workload that holds more than memory (serve-mixed's
// daemon); close releases it before the next set-up and at the end.
type closer interface{ close() }

// measure runs a pass workload: setups times a build plus a warm-up
// pass, then the open loop of a workload that has one (traced runs
// only), then timed passes until the budget is spent (alternating
// untraced and traced passes in a traced run), then the golden checks.
// It returns the workload's guest processors per pass.
func (h *harness) measure(build func(h *harness) (passWorkload, error)) (procs int, err error) {
	var w passWorkload
	release := func() {
		if c, ok := w.(closer); ok {
			c.close()
		}
		w = nil
	}
	defer release()
	for i := 0; i < setups; i++ {
		// The first set-up counts from process start.
		t0, c0 := processStart, 0.0
		if i > 0 {
			// Free the previous set-up first, so the footprint the
			// passes start from is one set-up's.
			release()
			debug.FreeOSMemory()
			t0, c0 = time.Now(), cpuSeconds()
		}
		if w, err = build(h); err != nil {
			return 0, err
		}
		var c layerCounts
		w.pass(h, nil, -1, &c)
		h.setupS = append(h.setupS, cpuSeconds()-c0)
		h.setupWallS = append(h.setupWallS, time.Since(t0).Seconds())
	}
	deadline := time.Now().Add(h.budget)
	if ol, ok := w.(openLooper); ok && h.traced {
		h.openLat = ol.openLoop(h)
	}
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		pr := passRec{traced: h.traced && i%2 == 1}
		var rec *recorder
		if pr.traced {
			rec = h.rec
		}
		runtime.GC()
		h.heap.restart()
		rt0, ev0, hop0 := readRuntime(), logp.SimEventCount(), netsim.SimHopCount()
		root := rec.begin(-1, "bench", "pass")
		s0, tot0, ticksOK := cpuTicks()
		t0, c0 := time.Now(), cpuSeconds()
		pr.ops = w.pass(h, rec, root, &pr.counts)
		pr.cpu, pr.wall = cpuSeconds()-c0, time.Since(t0).Seconds()
		pr.heap = h.heap.read()
		pr.steal = -1
		if s1, tot1, ok := cpuTicks(); ok && ticksOK && tot1 > tot0 {
			pr.steal = float64(s1-s0) / float64(tot1-tot0)
		}
		rec.end(root)
		pr.rt = readRuntime().sub(rt0)
		pr.events, pr.hops = logp.SimEventCount()-ev0, netsim.SimHopCount()-hop0
		h.passes = append(h.passes, pr)
	}
	w.verify(h)
	h.info["passes"] = len(h.passes)
	return w.procs(), nil
}

// median is the nearest-rank lower median, always an observed sample.
func median(xs []float64) float64 { return stats.Percentile(slices.Clone(xs), 0.5) }

// tail returns the highest nearest-rank percentile of xs that has at
// least tailBeyond samples beyond it, and which percentile that was.
// The ladder is 99.9 and then every whole percentile down to 50. With
// fewer than 2*tailBeyond samples no rung qualifies, and the tail is
// reported as the median (p50), so the figure does not jump from a
// median to a maximum as a run's sample count crosses the threshold.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	ladder := []int{999} // in permille, so each quantile is one exact division
	for pm := 990; pm >= 500; pm -= 10 {
		ladder = append(ladder, pm)
	}
	for _, pm := range ladder {
		q := float64(pm) / 1000
		// The rank computed exactly as stats.Percentile computes it.
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= tailBeyond {
			return stats.Percentile(slices.Clone(xs), q), float64(pm) / 10
		}
	}
	return median(xs), 50
}

// split returns the passes of one kind.
func (h *harness) split(traced bool) []passRec {
	var out []passRec
	for _, p := range h.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passMetrics turns the untraced passes into the end-to-end metrics,
// every time among them in CPU seconds (see cpuSeconds): medians over
// the set-ups and the passes.
func (h *harness) passMetrics(procs int) map[string]metric {
	var cpus, walls, bytes, rates, heaps, steals []float64
	for _, p := range h.split(false) {
		steals = append(steals, p.steal)
		cpus = append(cpus, p.cpu)
		heaps = append(heaps, float64(p.heap)/(1<<20))
		walls = append(walls, p.wall)
		rates = append(rates, float64(p.events)/p.cpu)
		per := float64(procs)
		if procs == 0 {
			per = float64(p.ops)
		}
		bytes = append(bytes, p.rt.allocBytes/per)
	}
	h.info["pass_cpu_s"] = cpus
	h.info["pass_wall_s"] = walls
	h.info["pass_peak_heap_mb"] = heaps
	h.info["pass_steal_frac"] = steals
	h.info["setup_cpu_s"] = h.setupS
	h.info["setup_wall_s"] = h.setupWallS
	return map[string]metric{
		"setup_s":          {median(h.setupS), "s"},
		"cpu_s":            {median(cpus), "s"},
		"events_per_cpu_s": {median(rates), "1/s"},
		"peak_heap_mb":     {median(heaps), "MiB"},
		"bytes_per_proc":   {median(bytes), "B"},
	}
}

// hostMetrics are the figures a user times with a clock on the wall:
// host seconds per untraced pass, and serve-mixed's open-loop latency
// and burst capacity (0 on the workloads without a daemon). A shared
// host spreads them by a quarter from run to run, so they are reported
// with the per-layer metrics, which carry no bound, and not gated.
func (h *harness) hostMetrics() map[string]metric {
	var walls, rates []float64
	for _, p := range h.split(false) {
		walls = append(walls, p.wall)
		rates = append(rates, float64(p.ops)/p.wall)
	}
	m := map[string]metric{
		"wall_s":                    {median(walls), "s"},
		"serve_p50_ms":              {0, "ms"},
		"serve_tail_ms":             {0, "ms"},
		"serve_capacity_jobs_per_s": {0, "1/s"},
	}
	if h.openLat != nil {
		t, pct := tail(h.openLat)
		h.info["serve_tail_pct"] = pct
		m["serve_p50_ms"] = metric{median(h.openLat), "ms"}
		m["serve_tail_ms"] = metric{t, "ms"}
		m["serve_capacity_jobs_per_s"] = metric{median(rates), "1/s"}
	}
	return m
}

// layerMetrics turns the traced passes and their spans into the
// per-layer metrics. Times and counts are means per traced pass; a
// layer the workload does not reach through the benchmark's own calls
// reports 0.
func (h *harness) layerMetrics() map[string]metric {
	traced, plain := h.split(true), h.split(false)
	n := float64(len(traced))
	perPass := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	var c layerCounts
	var hops int64
	var rt rtSample
	var tracedCPU, plainCPU []float64
	for _, p := range traced {
		hops += p.hops
		rt = rt.plus(p.rt)
		c.add(p.counts)
		tracedCPU = append(tracedCPU, p.cpu)
	}
	for _, p := range plain {
		plainCPU = append(plainCPU, p.cpu)
	}
	layer := func(name string) func(*span) bool {
		return func(s *span) bool { return s.Layer == name }
	}
	logpDur, logpGuest, logpCalls := h.rec.sum(layer("logp"))
	coreDur, coreGuest, coreCalls := h.rec.sum(layer("core"))
	relDur, _, _ := h.rec.sum(layer("relation"))
	netDur, _, _ := h.rec.sum(func(s *span) bool { return s.Layer == "bench" && netsimExperiments[s.Name] })
	logpBusy := float64(logpDur - logpGuest)
	coreBusy := float64(coreDur - coreGuest)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]metric{
		"logp.busy_s":              {perPass(logpBusy) / 1e9, "s"},
		"logp.ns_per_event":        {ratio(logpBusy, float64(c.logpEvents)), "ns"},
		"logp.events":              {perPass(float64(c.logpEvents)), "count"},
		"logp.msgs":                {perPass(float64(c.logpMsgs)), "count"},
		"logp.stall_events":        {perPass(float64(c.logpStalls)), "count"},
		"logp.max_buffer_depth":    {float64(c.logpMaxBuffer), "count"},
		"guest.next_calls":         {perPass(float64(logpCalls + coreCalls)), "count"},
		"guest.self_s":             {perPass(float64(logpGuest+coreGuest)) / 1e9, "s"},
		"relation.gen_s":           {perPass(float64(relDur)) / 1e9, "s"},
		"relation.pairs":           {perPass(float64(c.relationPairs)), "count"},
		"core.replay_busy_s":       {perPass(coreBusy) / 1e9, "s"},
		"core.ns_per_msg":          {ratio(coreBusy, float64(c.coreMsgs)), "ns"},
		"core.cycles":              {perPass(float64(c.coreCycles)), "count"},
		"core.replay_msgs":         {perPass(float64(c.coreMsgs)), "count"},
		"core.capacity_violations": {perPass(float64(c.coreCapacityViolations)), "count"},
		"netsim.busy_s":            {perPass(float64(netDur)) / 1e9, "s"},
		"netsim.hops":              {perPass(float64(hops)), "count"},
		"netsim.ns_per_hop":        {ratio(float64(netDur), float64(hops)), "ns"},
		"gc.cycles":                {perPass(rt.gcCycles), "count"},
		"gc.cpu_s":                 {perPass(rt.gcCPU), "s"},
		"gc.pause_s":               {perPass(rt.gcPause), "s"},
		"alloc.bytes":              {perPass(rt.allocBytes), "B"},
		"alloc.objects":            {perPass(rt.allocObjects), "count"},
		"trace_overhead_frac":      {ratio(median(tracedCPU), median(plainCPU)) - 1, "frac"},
	}
	for _, id := range experimentIDs() {
		d, _, _ := h.rec.sum(func(s *span) bool { return s.Layer == "bench" && s.Name == id })
		m["bench."+id+".s"] = metric{perPass(float64(d)) / 1e9, "s"}
	}
	return m
}

// writeTrace stores the run's spans under .bench_build/traces.
func (h *harness) writeTrace() {
	if h.rec == nil {
		return
	}
	path, err := h.rec.write(h.root+"/.bench_build/traces", h.workload, h.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		return
	}
	h.info["trace_file"] = path
	h.info["spans"] = len(h.rec.spans)
}
