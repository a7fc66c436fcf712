// Package serve turns the one-shot bsplogp CLI into a resident
// simulation daemon: a stdlib-only HTTP+JSON job API (submit an
// experiment or audit run, poll status, stream JSONL table rows and
// audit summaries back, list and cancel jobs) multiplexed over a
// bounded worker pool. Each worker owns a bench.Warm cache, so
// consecutive jobs on a worker reuse cross-simulators and packet
// networks instead of rebuilding them — the warm machine pool. Jobs
// carry their own seeds; a job's result body is a pure function of
// (id, mode, quick, seed), so two submissions of the same
// spec return byte-identical bodies no matter which worker runs them
// or what ran before.
//
// All wall-clock reads in this package measure host-side job latency
// (queue wait, run time), never simulated time; they are annotated
// determinism exceptions exactly like the bench runner's.
package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bench"
)

// JobSpec is the submission body of POST /jobs.
type JobSpec struct {
	// ID names the experiment (any registry entry: E1..E15.*, A1..A6).
	ID string `json:"id"`
	// Mode selects what the job runs: "run" (default) renders the
	// experiment's table; "audit" additionally runs it under the
	// streaming LogP invariant auditor and appends the audit summary.
	Mode string `json:"mode,omitempty"`
	// Quick shrinks processor counts and trials, as bsplogp -quick.
	Quick bool `json:"quick,omitempty"`
	// Seed drives every random choice of the job (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Shards is removed: the sharded scheduler it selected is gone.
	// The field remains only so that normalize can reject a non-zero
	// value instead of silently ignoring it.
	Shards int `json:"shards,omitempty"`
}

// normalize applies defaults and validates the spec.
func (s *JobSpec) normalize() error {
	if s.Mode == "" {
		s.Mode = ModeRun
	}
	if s.Mode != ModeRun && s.Mode != ModeAudit {
		return fmt.Errorf("serve: unknown mode %q (want %q or %q)", s.Mode, ModeRun, ModeAudit)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards != 0 {
		return fmt.Errorf("serve: shards: the sharded scheduler was removed")
	}
	if _, ok := bench.Lookup(s.ID); !ok {
		return fmt.Errorf("serve: unknown experiment %q", s.ID)
	}
	return nil
}

// Job modes.
const (
	ModeRun   = "run"
	ModeAudit = "audit"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one submitted run. Fields behind mu change as the job moves
// through the pool; done closes when the job reaches a terminal state.
type Job struct {
	Name string
	Spec JobSpec

	mu        sync.Mutex
	state     string
	errMsg    string
	body      []byte
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{}
}

// Status is the poll/list view of a job.
type Status struct {
	Job   string `json:"job"`
	ID    string `json:"id"`
	Mode  string `json:"mode"`
	Quick bool   `json:"quick"`
	Seed  uint64 `json:"seed"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Submitted/Started/Finished are RFC3339Nano wall-clock stamps
	// (empty until reached); QueueNanos and RunNanos are the derived
	// latencies, filled as soon as their interval closes.
	Submitted  string `json:"submitted"`
	Started    string `json:"started,omitempty"`
	Finished   string `json:"finished,omitempty"`
	QueueNanos int64  `json:"queueNanos,omitempty"`
	RunNanos   int64  `json:"runNanos,omitempty"`
	BodyBytes  int    `json:"bodyBytes,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		Job:       j.Name,
		ID:        j.Spec.ID,
		Mode:      j.Spec.Mode,
		Quick:     j.Spec.Quick,
		Seed:      j.Spec.Seed,
		State:     j.state,
		Error:     j.errMsg,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
		BodyBytes: len(j.body),
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
		st.QueueNanos = j.started.Sub(j.submitted).Nanoseconds()
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
		if !j.started.IsZero() {
			st.RunNanos = j.finished.Sub(j.started).Nanoseconds()
		}
	}
	return st
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's terminal state, result body, and error
// message. Valid only after Done() is closed (body is nil before).
func (j *Job) Result() (state string, body []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.body, j.errMsg
}

// now is the daemon's wall clock, isolated here so the determinism
// exception is single and auditable: serve measures host-side job
// latency (the same measurement bench's runner makes), and no
// simulated instant ever flows through this package.
//
//lint:ignore determinism job latency is wall-clock by design; simulated time never flows through serve
func now() time.Time { return time.Now() }

// Pool runs jobs on a fixed set of worker goroutines, each owning a
// private bench.Warm cache. The queue is an in-memory FIFO guarded by
// a mutex+cond (not channels: submission must be able to refuse
// without blocking, and drain must never race a late send).
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*Job
	jobs    map[string]*Job
	order   []string
	seq     int
	closed  bool
	wg      sync.WaitGroup

	workers  int
	maxQueue int

	// auditGate serializes audit jobs against everything else: the
	// logp audit hook is process-global, so an audit job must be the
	// only job building LogP machines while it runs. Run-mode jobs
	// hold the read side, audit jobs the write side.
	auditGate sync.RWMutex
}

// ErrDraining rejects submissions after Drain began.
var ErrDraining = fmt.Errorf("serve: pool is draining, not accepting jobs")

// ErrQueueFull rejects submissions when the backlog cap is reached.
var ErrQueueFull = fmt.Errorf("serve: job queue is full")

// NewPool starts workers goroutines (minimum 1). maxQueue bounds the
// backlog of queued-but-unstarted jobs (0 selects 1024).
func NewPool(workers, maxQueue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if maxQueue <= 0 {
		maxQueue = 1024
	}
	p := &Pool{
		jobs:     map[string]*Job{},
		workers:  workers,
		maxQueue: maxQueue,
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Submit validates and enqueues a job, returning it with a fresh name.
func (p *Pool) Submit(spec JobSpec) (*Job, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrDraining
	}
	if len(p.pending) >= p.maxQueue {
		return nil, ErrQueueFull
	}
	p.seq++
	j := &Job{
		Name:      fmt.Sprintf("j%06d", p.seq),
		Spec:      spec,
		state:     StateQueued,
		submitted: now(),
		done:      make(chan struct{}),
	}
	p.jobs[j.Name] = j
	p.order = append(p.order, j.Name)
	p.pending = append(p.pending, j)
	p.cond.Signal()
	return j, nil
}

// Get returns a job by name.
func (p *Pool) Get(name string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[name]
	return j, ok
}

// List snapshots every job's status in submission order.
func (p *Pool) List() []Status {
	p.mu.Lock()
	jobs := make([]*Job, 0, len(p.order))
	for _, name := range p.order {
		jobs = append(jobs, p.jobs[name])
	}
	p.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel cancels a queued job. Running or terminal jobs cannot be
// canceled (the engines have no preemption point); Cancel reports the
// job's state either way.
func (p *Pool) Cancel(name string) (state string, ok bool) {
	p.mu.Lock()
	j, found := p.jobs[name]
	p.mu.Unlock()
	if !found {
		return "", false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return j.state, true
	}
	j.state = StateCanceled
	j.finished = now()
	close(j.done)
	return StateCanceled, true
}

// Drain stops accepting submissions, runs the backlog to completion,
// and waits for every worker to exit. Safe to call more than once.
func (p *Pool) Drain() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker pulls jobs off the FIFO until the pool drains. The Warm cache
// lives for the worker's lifetime: every job it runs after the first
// finds the cross-simulators and networks of matching specs already
// built.
func (p *Pool) worker() {
	defer p.wg.Done()
	warm := bench.NewWarm()
	for {
		p.mu.Lock()
		for len(p.pending) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.pending) == 0 {
			p.mu.Unlock()
			return
		}
		j := p.pending[0]
		p.pending = p.pending[1:]
		p.mu.Unlock()
		p.runJob(j, warm)
	}
}

// runJob executes one job on this worker and publishes its result.
func (p *Pool) runJob(j *Job, warm *bench.Warm) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while pending
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = now()
	spec := j.Spec
	j.mu.Unlock()

	body, err := p.execute(spec, warm)

	j.mu.Lock()
	j.finished = now()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.body = body
	}
	close(j.done)
	j.mu.Unlock()
}

// execute renders the job body. Audit jobs take the exclusive side of
// the gate because the logp audit hook is process-global; run jobs
// share the read side so they only ever exclude audits, not each
// other.
func (p *Pool) execute(spec JobSpec, warm *bench.Warm) ([]byte, error) {
	cfg := bench.Config{Quick: spec.Quick, Seed: spec.Seed, Warm: warm}
	if spec.Mode == ModeAudit {
		p.auditGate.Lock()
		defer p.auditGate.Unlock()
		tab, sum, err := bench.RunAuditJob(cfg, spec.ID)
		if err != nil {
			return nil, err
		}
		return encodeJobBody(spec, tab, &sum)
	}
	p.auditGate.RLock()
	defer p.auditGate.RUnlock()
	tab, err := bench.RunJob(cfg, spec.ID)
	if err != nil {
		return nil, err
	}
	return encodeJobBody(spec, tab, nil)
}
