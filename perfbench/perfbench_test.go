package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_digests.json")

// The tests run from perfbench/, one level below the checkout root.
const testRoot = ".."

// testHarness is an untraced or traced harness whose heap sampler stops
// when the test ends.
func testHarness(t *testing.T, workload string, traced bool) *harness {
	h := newHarness(workload, goldenSeed, time.Second, traced, testRoot)
	t.Cleanup(func() { h.heap.close() })
	return h
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: tail must not assume sorted input
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value, pq float64
	}{
		{100, 90, 90},   // p90 has exactly 10 samples beyond it; p91 only 9
		{1000, 990, 99}, // p99: 10 beyond; p99.9 would leave 1
		{10000, 9990, 99.9},
		{20, 10, 50}, // the lowest rung: p50 with 10 beyond
		{19, 10, 50}, // too few for any rung: the median
		{1, 1, 50},
	} {
		xs := seq(tc.n)
		got, pq := tail(xs)
		if got != tc.value || pq != tc.pq {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, got, pq, tc.value, tc.pq)
		}
		if got != stats.Percentile(seq(tc.n), math.Round(pq*10)/1000) {
			t.Errorf("n=%d: tail %v is not stats.Percentile at p%v", tc.n, got, pq)
		}
		if !slices.Equal(xs, seq(tc.n)) {
			t.Errorf("n=%d: tail reordered its input", tc.n)
		}
	}
}

// TestCPUSecondsCountsWork holds the clock every end-to-end time is read
// from to the process's own work: spinning advances it.
func TestCPUSecondsCountsWork(t *testing.T) {
	c0 := cpuSeconds()
	deadline := time.Now().Add(10 * time.Second)
	var x uint64
	for cpuSeconds()-c0 < 0.05 {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1
		}
		if time.Now().After(deadline) {
			t.Fatalf("cpuSeconds advanced %.3f s in 10 s of spinning (x=%d)", cpuSeconds()-c0, x)
		}
	}
}

// TestHeapPeakWindow checks that a window's peak covers what was
// allocated inside it.
func TestHeapPeakWindow(t *testing.T) {
	s := startHeapSampler()
	defer s.close()
	s.restart()
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	if peak := s.read(); peak < 64<<20 {
		t.Errorf("peak %d B after holding 64 MiB", peak)
	}
	runtime.KeepAlive(buf)
}

func TestMetricNameRule(t *testing.T) {
	for _, ok := range []string{"wall_s", "bench.E13.s", "serve.run_ms.audit.p50", "9lives", strings.Repeat("a", 64)} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p99%", "é", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

type benchSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeHarness has one untraced and one traced pass and a few spans, so
// the metric assembly runs without running a workload.
func fakeHarness(t *testing.T) *harness {
	h := testHarness(t, "test", true)
	h.setupS = []float64{1, 2, 3}
	for _, traced := range []bool{false, true} {
		h.passes = append(h.passes, passRec{traced: traced, cpu: 1, wall: 1, ops: 2, events: 10, hops: 10})
	}
	root := h.rec.begin(-1, "bench", "pass")
	h.rec.end(h.rec.begin(root, "logp", "Machine.RunScript/x"))
	h.attempted = 1
	return h
}

// TestMetricsMatchBenchmarkJSON holds the names and units the code
// reports to the lists BENCHMARK.json declares, and every declared
// name to the name rule.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	h := fakeHarness(t)
	check := func(kind string, got map[string]metric, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: code reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for n, unit := range want {
			if !metricName.MatchString(n) {
				t.Errorf("%s: %q breaks the name rule", kind, n)
			}
			if m, ok := got[n]; !ok {
				t.Errorf("%s: %q listed but not reported", kind, n)
			} else if m.Unit != unit {
				t.Errorf("%s: %q reported in %s, listed in %s", kind, n, m.Unit, unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	check("end_to_end", h.passMetrics(0), e2e)
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	res, err := h.assemble(nil)
	if err != nil {
		t.Fatal(err)
	}
	check("per_layer", res.Metrics, layer)

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
}

// TestCorruptedDigestFails runs a paper-suite operation against a
// recorded digest with one character changed: the operation must count
// as failed and the result as incorrect, never as a pass.
func TestCorruptedDigestFails(t *testing.T) {
	digests, err := readPaperDigests(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	const id = "E6"
	want := digests[fmt.Sprint(goldenSeed)][id]
	if want == "" {
		t.Fatalf("no recorded digest for %s at seed %d", id, goldenSeed)
	}
	e, _ := bench.Lookup(id)
	w := &paperSuite{cfg: bench.Config{Seed: goldenSeed}, exps: []bench.Experiment{e}}
	for _, corrupt := range []bool{false, true} {
		h := testHarness(t, "paper-suite", false)
		h.ref["paper/"+id] = want
		if corrupt {
			h.ref["paper/"+id] = strings.Map(func(r rune) rune {
				if r == '0' {
					return '1'
				}
				return '0'
			}, want[:1]) + want[1:]
		}
		w.pass(h, nil, -1, &layerCounts{})
		if got := h.failed == 1; got != corrupt {
			t.Errorf("corrupt=%v: failed=%d of %d", corrupt, h.failed, h.attempted)
		}
		res, err := h.assemble(map[string]metric{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct == corrupt {
			t.Errorf("corrupt=%v: result correct=%v", corrupt, res.Correct)
		}
	}
}

// TestUnrecordedSeedChecksDigests runs paper-suite's verify at a seed
// with no recorded digests: the tables rendered at goldenSeed must still
// be held to that seed's digests, so a corrupted one fails.
func TestUnrecordedSeedChecksDigests(t *testing.T) {
	digests, err := readPaperDigests(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	const id, seed = "E6", 999
	if _, ok := digests[fmt.Sprint(seed)]; ok {
		t.Fatalf("seed %d has recorded digests", seed)
	}
	e, _ := bench.Lookup(id)
	for _, corrupt := range []bool{false, true} {
		d := digests[fmt.Sprint(goldenSeed)][id]
		if corrupt {
			d = strings.Repeat("0", len(d))
		}
		w := &paperSuite{exps: []bench.Experiment{e}, digests: map[string]map[string]string{fmt.Sprint(goldenSeed): {id: d}}}
		h := newHarness("paper-suite", seed, time.Second, false, testRoot)
		t.Cleanup(func() { h.heap.close() })
		w.verify(h)
		if got := h.failed == 1; got != corrupt {
			t.Errorf("corrupt=%v: failed=%d of %d: %v", corrupt, h.failed, h.attempted, h.failures)
		}
	}
}

// TestPaperDigests recomputes the paper-size tables for every recorded
// seed without a warm cache; -update rewrites the file.
func TestPaperDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper suite twice")
	}
	got := map[string]map[string]string{}
	for _, seed := range []uint64{goldenSeed, heldOutSeed} {
		d := map[string]string{}
		for _, e := range bench.All() {
			d[e.ID] = digest(e.Run(bench.Config{Seed: seed}).Render())
		}
		got[fmt.Sprint(seed)] = d
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperDigestsFile[len("perfbench/"):], append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readPaperDigests(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("paper-size tables differ from %s (regenerate with -update only for a deliberate change)", paperDigestsFile)
	}
}

// TestScriptsMatchRegistryGoldens pins the benchmark's scale scripts to
// the registry experiments they imitate.
func TestScriptsMatchRegistryGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("renders E17 at p=1024")
	}
	h := testHarness(t, "scale", false)
	checkGoldenScale(h, "E14", "E15", "E16", "E17")
	if h.attempted != 4 || h.failed != 0 {
		t.Errorf("golden checks: %d of %d failed: %v", h.failed, h.attempted, h.failures)
	}
}

// TestScriptResetRepeatsFreshRun checks that a script rewound by reset
// after a run gives the same result as a freshly built one, which the
// timed passes rely on when they reuse their scripts.
func TestScriptResetRepeatsFreshRun(t *testing.T) {
	const p = 64
	rel := relation.NewRandomRegularStream(stats.NewRNG(5), p, 4)
	keys := skewedKeys(5, p, bucketKeys, bucketSkew, bucketRange)
	for name, mk := range map[string]func() resetScript{
		"ring":   func() resetScript { return newRingScript(p, ringRounds) },
		"bcast":  func() resetScript { return newBcastScript(p) },
		"route":  func() resetScript { return newRouteScript(p, 4, 4) },
		"rand":   func() resetScript { return newRandScript(rel, randWindow) },
		"bucket": func() resetScript { return newBucketScript(keys, bucketRange) },
	} {
		lp := bucketLogP(p)
		runs := func(s logp.Script) string {
			res, err := newMachine(lp, logp.DeliverMinLatency, logp.AcceptFIFO, 5).RunScript(s)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return resultKey(res)
		}
		s := mk()
		first := runs(s)
		s.reset()
		if again, fresh := runs(s), runs(mk()); again != first || fresh != first {
			t.Errorf("%s: first %s, after reset %s, fresh %s", name, first, again, fresh)
		}
	}
}

// TestInputsFollowTheSeed checks that every randomized input changes
// with the seed and repeats for the same seed.
func TestInputsFollowTheSeed(t *testing.T) {
	perms := func(seed uint64) []int {
		rel := relation.NewRandomRegularStream(stats.NewRNG(seed), 64, 4)
		var out []int
		for k := 0; k < 4; k++ {
			for id := 0; id < 64; id++ {
				out = append(out, rel.Pair(id, k).Dst)
			}
		}
		return out
	}
	mix := func(seed uint64) []serve.JobSpec {
		rng := stats.NewRNG(seed)
		return planJobs(rng, jobSeeds(rng), 50)
	}
	keys := func(seed uint64) [][]int64 { return skewedKeys(seed, 16, bucketKeys, bucketSkew, bucketRange) }
	for name, in := range map[string]func(uint64) any{
		"E16 relation":      func(s uint64) any { return perms(s) },
		"serve seeds+order": func(s uint64) any { return mix(s) },
		"E17 keys":          func(s uint64) any { return keys(s) },
	} {
		if !reflect.DeepEqual(in(1), in(1)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(in(1), in(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
	audits := 0
	for _, j := range mix(1) {
		if j.Mode == serve.ModeAudit {
			audits++
		}
	}
	if audits == 0 || audits > 25 {
		t.Errorf("%d audit jobs in 50; want a minority", audits)
	}
}

// TestDaemonBodyEqualsDirectRender holds the benchmark's rendering of
// bench.RunJob to the daemon's byte for byte, for a run and an audit job.
func TestDaemonBodyEqualsDirectRender(t *testing.T) {
	plan := []serve.JobSpec{
		{ID: "E6", Mode: serve.ModeRun, Quick: true, Seed: 7},
		{ID: "E6", Mode: serve.ModeAudit, Quick: true, Seed: 7},
	}
	want := map[string][]byte{}
	for _, s := range plan {
		b, err := expectedBody(s)
		if err != nil {
			t.Fatal(err)
		}
		want[specKey(s)] = b
	}
	r, err := startRig()
	if err != nil {
		t.Fatal(err)
	}
	defer r.stop()
	now := time.Now()
	outs := r.drive(plan, func(int) time.Time { return now }, true)
	h := testHarness(t, "serve-mixed", false)
	lat, refused := h.tally(outs, want)
	if h.failed != 0 || refused != 0 || len(lat) != len(plan) {
		t.Errorf("failed=%d refused=%d ok=%d: %v", h.failed, refused, len(lat), h.failures)
	}
	for _, o := range outs {
		if o.run <= 0 {
			t.Errorf("%s: traced drive read no run time from the pool", specKey(o.spec))
		}
	}
	if bytes.Equal(want[specKey(plan[0])], want[specKey(plan[1])]) {
		t.Error("run and audit bodies are identical; the audit line is missing")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{},
		{"--workload", "paper-suite", "--trace", "2"},
		{"--workload", "paper-suite", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
