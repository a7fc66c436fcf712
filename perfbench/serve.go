package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/logp"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The serve-mixed load: an in-process daemon over loopback HTTP. Each
// timed pass is a burst of jobs enqueued at once, which measures how
// fast the pool drains a backlog; in traced runs, an open loop at a
// fixed rate before the passes measures job latency. The generator is one goroutine
// submitting on one connection and one goroutine reading results in
// submission order on a second, so load generation never takes more
// than two connections, and the daemon's pool has as many workers as
// the container has CPUs (two).
const (
	serveWorkers = 2
	// serveRate is the open loop's arrival rate, jobs per second, and
	// serveOpenJobs its fixed job count: 10 s of load whatever the time
	// budget, so the tail is p91 in every run. At 30 jobs/s and 300
	// jobs the tail is p96, which job collisions and CPU steal moved by
	// half from run to run on a shared 2-vCPU host.
	serveRate     = 12
	serveOpenJobs = 120
	serveBurst    = 4 * serveBlock
	// serveSeeds distinct job seeds recur through the mix, so
	// same-seed bodies can be compared and warm caches hit.
	serveSeeds = 8
	// serveBlock is the mix's unit: serveRunsPerID run jobs of each
	// run experiment and one audit job.
	serveRunsPerID = 3
	serveBlock     = 3*serveRunsPerID + 1
)

// Run jobs are the quick experiments a service user polls for; audit
// jobs take the exclusive side of the pool's audit gate.
var (
	serveRunIDs   = []string{"E3", "E4", "E6"}
	serveAuditIDs = []string{"E3", "E6"}
)

// planJobs draws n jobs of the mix from rng in blocks of ten: three
// run jobs each of E3, E4 and E6 and one audit job, alternating
// between E3 and E6 from block to block, each block in shuffled order
// and every job with a seed drawn from seeds. The fixed proportions
// keep the offered work the same for every seed; the seed changes the
// order and the job seeds.
func planJobs(rng *stats.RNG, seeds []uint64, n int) []serve.JobSpec {
	plan := make([]serve.JobSpec, 0, n+serveBlock)
	for b := 0; len(plan) < n; b++ {
		block := make([]serve.JobSpec, 0, serveBlock)
		for _, id := range serveRunIDs {
			for i := 0; i < serveRunsPerID; i++ {
				block = append(block, serve.JobSpec{ID: id, Mode: serve.ModeRun})
			}
		}
		block = append(block, serve.JobSpec{ID: serveAuditIDs[b%len(serveAuditIDs)], Mode: serve.ModeAudit})
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			block[i].Quick = true
			block[i].Seed = seeds[rng.Intn(len(seeds))]
		}
		plan = append(plan, block...)
	}
	return plan[:n]
}

// jobSeeds draws the run's distinct job seeds.
func jobSeeds(rng *stats.RNG) []uint64 {
	seeds := make([]uint64, serveSeeds)
	for i := range seeds {
		seeds[i] = 1 + rng.Uint64n(1<<20)
	}
	return seeds
}

func specKey(s serve.JobSpec) string { return fmt.Sprintf("%s/%s/%d", s.ID, s.Mode, s.Seed) }

// The JSONL lines of a job body, field for field as the daemon writes
// them, so a body rendered here from bench.RunJob can be compared byte
// for byte with the one the daemon returns.
type (
	tableLine struct {
		Type    string   `json:"type"`
		ID      string   `json:"id"`
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
	}
	rowLine struct {
		Type  string   `json:"type"`
		ID    string   `json:"id"`
		Cells []string `json:"cells"`
	}
	noteLine struct {
		Type string `json:"type"`
		ID   string `json:"id"`
		Note string `json:"note"`
	}
	auditLine struct {
		Type       string            `json:"type"`
		ID         string            `json:"id"`
		Summary    logp.AuditSummary `json:"summary"`
		Violations int64             `json:"violations"`
	}
	doneLine struct {
		Type       string `json:"type"`
		ID         string `json:"id"`
		Mode       string `json:"mode"`
		Seed       uint64 `json:"seed"`
		Quick      bool   `json:"quick"`
		Shards     int    `json:"shards,omitempty"`
		Rows       int    `json:"rows"`
		Violations int64  `json:"violations"`
	}
)

// expectedBody runs spec through bench.RunJob (or RunAuditJob) in this
// goroutine and renders the body the daemon must return for it. Audit
// jobs use the process-wide audit hook, so this runs only while no
// daemon is up.
func expectedBody(spec serve.JobSpec) ([]byte, error) {
	cfg := bench.Config{Quick: spec.Quick, Seed: spec.Seed}
	var tab *bench.Table
	var sum *logp.AuditSummary
	var err error
	if spec.Mode == serve.ModeAudit {
		var s logp.AuditSummary
		tab, s, err = bench.RunAuditJob(cfg, spec.ID)
		sum = &s
	} else {
		tab, err = bench.RunJob(cfg, spec.ID)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	lines := []any{tableLine{"table", tab.ID, tab.Title, tab.Columns}}
	for _, row := range tab.Rows {
		lines = append(lines, rowLine{"row", tab.ID, row})
	}
	for _, n := range tab.Notes {
		lines = append(lines, noteLine{"note", tab.ID, n})
	}
	var violations int64
	if sum != nil {
		violations = sum.ViolationCount
		lines = append(lines, auditLine{"audit", tab.ID, *sum, violations})
	}
	lines = append(lines, doneLine{"done", tab.ID, spec.Mode, spec.Seed, spec.Quick, spec.Shards, len(tab.Rows), violations})
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// rig is an in-process daemon on a loopback port and the two client
// connections the load uses.
type rig struct {
	srv       *serve.Server
	hs        *http.Server
	base      string
	served    chan error
	post, get *http.Client
}

func startRig() (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	oneConn := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	r := &rig{
		srv:    serve.New(serveWorkers, 0),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		post:   oneConn(),
		get:    oneConn(),
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// stop drains the pool, closes the listener and every connection, and
// waits for the server goroutine to return.
func (r *rig) stop() {
	r.srv.Drain()
	r.hs.Close()
	<-r.served
	r.post.CloseIdleConnections()
	r.get.CloseIdleConnections()
}

var errRefused = errors.New("job refused (503)")

func (r *rig) submit(spec serve.JobSpec) (string, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := r.post.Post(r.base+"/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusServiceUnavailable:
		return "", errRefused
	default:
		return "", fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var sub struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return "", fmt.Errorf("submit response: %w", err)
	}
	return sub.Job, nil
}

func (r *rig) result(name string) ([]byte, error) {
	resp, err := r.get.Get(r.base + "/jobs/" + name + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %s: %s", resp.Status, body)
	}
	return body, nil
}

// outcome is one job as the client saw it.
type outcome struct {
	spec              serve.JobSpec
	name              string
	due, sent, posted time.Time
	fetch, done       time.Time
	body              []byte
	err               error
	// queue and run are the pool's own Status.QueueNanos and RunNanos,
	// read only in traced drives.
	queue, run int64
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// drive submits plan[k] at due(k) on one goroutine while a second reads
// the results in submission order, and returns when every job is read.
// A traced drive also reads each job's status from the pool as soon as
// its result is in.
func (r *rig) drive(plan []serve.JobSpec, due func(k int) time.Time, traced bool) []outcome {
	out := make([]outcome, len(plan))
	next := make(chan int, len(plan)) // one send per job: the generator never blocks on the reader
	read := make(chan struct{})
	go func() {
		defer close(read)
		for k := range next {
			o := &out[k]
			if o.err != nil {
				continue
			}
			o.fetch = time.Now()
			o.body, o.err = r.result(o.name)
			o.done = time.Now()
			if j, ok := r.srv.Pool().Get(o.name); traced && ok {
				st := j.Status()
				o.queue, o.run = st.QueueNanos, st.RunNanos
			}
		}
	}()
	for k, spec := range plan {
		o := &out[k]
		o.spec, o.due = spec, due(k)
		if wait := time.Until(o.due); wait > 0 {
			time.Sleep(wait)
		}
		o.sent = time.Now()
		o.name, o.err = r.submit(spec)
		o.posted = time.Now()
		next <- k
	}
	close(next)
	<-read
	return out
}

// tally checks every outcome against its expected body and returns the
// latencies (due to last byte) of the jobs that succeeded.
func (h *harness) tally(outs []outcome, want map[string][]byte) (lat []time.Duration, refused int) {
	for _, o := range outs {
		switch {
		case errors.Is(o.err, errRefused):
			refused++
			h.fail("%s: %v", specKey(o.spec), o.err)
		case o.err != nil:
			h.fail("%s: %v", specKey(o.spec), o.err)
		default:
			h.check(bytes.Equal(o.body, want[specKey(o.spec)]), "%s: body differs from bench.RunJob rendered directly", specKey(o.spec))
			lat = append(lat, o.done.Sub(o.due))
		}
	}
	return lat, refused
}

// traceJobs records a span per job, with the pool's own queue and run
// times for it, and children for the submit and the result read.
func (h *harness) traceJobs(outs []outcome, root int32) {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		args := map[string]int64{"lateNs": o.sent.Sub(o.due).Nanoseconds(), "queueNs": o.queue, "runNs": o.run}
		id := h.rec.add(root, "serve", "job/"+o.spec.ID+"/"+o.spec.Mode, o.due, o.done, args)
		h.rec.add(id, "serve", "POST /jobs", o.sent, o.posted, nil)
		h.rec.add(id, "serve", "GET /jobs/{job}/result", o.fetch, o.done, nil)
	}
}

// serveLayerOf computes the serve.* metrics from the job spans under
// root; refused counts the open loop's 503s.
func (h *harness) serveLayerOf(root int32, refused int) map[string]metric {
	var jobs []*span
	for i := range h.rec.spans {
		if s := &h.rec.spans[i]; s.Parent == root && s.Layer == "serve" {
			jobs = append(jobs, s)
		}
	}
	return serveMetrics(jobs, refused)
}

// serveMetrics computes the serve.* metrics from job spans.
func serveMetrics(jobs []*span, refused int) map[string]metric {
	var queue, runRun, runAudit, render, late []float64
	for _, s := range jobs {
		q, r := float64(s.Args["queueNs"])/1e6, float64(s.Args["runNs"])/1e6
		queue = append(queue, q)
		if strings.HasSuffix(s.Name, "/"+serve.ModeAudit) {
			runAudit = append(runAudit, r)
		} else {
			runRun = append(runRun, r)
		}
		render = append(render, float64(s.dur())/1e6-q-r)
		late = append(late, float64(s.Args["lateNs"])/1e6)
	}
	qt, _ := tail(queue)
	lt, _ := tail(late)
	return map[string]metric{
		"serve.queue_ms.p50":     {median(queue), "ms"},
		"serve.queue_ms.tail":    {qt, "ms"},
		"serve.run_ms.run.p50":   {median(runRun), "ms"},
		"serve.run_ms.audit.p50": {median(runAudit), "ms"},
		"serve.render_ms.p50":    {median(render), "ms"},
		"serve.refused":          {float64(refused), "count"},
		"serve.gen_late_ms.tail": {lt, "ms"},
	}
}

// serveMixed drives an in-process daemon with the job mix.
type serveMixed struct {
	r     *rig
	rng   *stats.RNG
	seeds []uint64
	want  map[string][]byte // expected body of every distinct spec
}

// newServeMixed draws the job seeds, renders the body every distinct
// job must return, and starts the daemon.
func newServeMixed(h *harness) (passWorkload, error) {
	rng := stats.NewRNG(h.seed)
	w := &serveMixed{rng: rng, seeds: jobSeeds(rng), want: map[string][]byte{}}
	for _, seed := range w.seeds {
		var specs []serve.JobSpec
		for _, id := range serveRunIDs {
			specs = append(specs, serve.JobSpec{ID: id, Mode: serve.ModeRun, Quick: true, Seed: seed})
		}
		for _, id := range serveAuditIDs {
			specs = append(specs, serve.JobSpec{ID: id, Mode: serve.ModeAudit, Quick: true, Seed: seed})
		}
		for _, spec := range specs {
			b, err := expectedBody(spec)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", specKey(spec), err)
			}
			w.want[specKey(spec)] = b
		}
	}
	var err error
	if w.r, err = startRig(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *serveMixed) close() { w.r.stop() }

func (w *serveMixed) procs() int { return 0 }

// pass drains one burst, a fresh draw of the mix enqueued at once, so
// the median over bursts does not hang on one order.
func (w *serveMixed) pass(h *harness, rec *recorder, root int32, _ *layerCounts) int {
	burst := planJobs(w.rng, w.seeds, serveBurst)
	t0 := time.Now()
	outs := w.r.drive(burst, func(int) time.Time { return t0 }, rec != nil)
	lat, _ := h.tally(outs, w.want)
	if rec != nil {
		h.traceJobs(outs, root)
	}
	return len(lat)
}

// openLoop offers serveOpenJobs jobs of the mix at serveRate, computes
// the serve.* layer figures from them and returns their latencies.
func (w *serveMixed) openLoop(h *harness) []float64 {
	plan := planJobs(w.rng, w.seeds, serveOpenJobs)
	start := time.Now().Add(10 * time.Millisecond)
	interval := time.Second / serveRate
	outs := w.r.drive(plan, func(k int) time.Time { return start.Add(time.Duration(k) * interval) }, true)
	lat, refused := h.tally(outs, w.want)
	var late []float64
	for _, o := range outs {
		late = append(late, ms(o.sent.Sub(o.due)))
	}
	root := h.rec.add(-1, "bench", "open-loop", start, time.Now(), nil)
	h.traceJobs(outs, root)
	h.serveLayer = h.serveLayerOf(root, refused)
	gl, gpct := tail(late)
	h.info["open_loop_jobs"] = len(plan)
	h.info["open_loop_rate_per_s"] = serveRate
	h.info["gen_late_ms_tail"] = gl
	h.info["gen_late_tail_pct"] = gpct
	h.info["refused"] = refused
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = ms(d)
	}
	return out
}

// verify holds bench.RunJob, which the expected bodies come from, to
// the registry's checked-in quick goldens of the run experiments that
// have one.
func (w *serveMixed) verify(h *harness) {
	for _, id := range []string{"E3", "E6"} {
		checkRegistryGolden(h, id)
	}
}
