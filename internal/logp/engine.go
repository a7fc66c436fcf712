package logp

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bodies"
	"repro/internal/horizon"
	"repro/internal/stats"
)

// DeliveryPolicy selects the arrival instant of an accepted message
// within the window (a, a+L] permitted by the model. The exact delivery
// time of a message is unpredictable under LogP; a program is correct
// only if it computes the required map under every admissible choice,
// so the policy is pluggable to let tests probe several executions.
type DeliveryPolicy uint8

const (
	// DeliverMaxLatency delivers as late as the model allows (the
	// adversarial choice against latency-sensitive programs).
	DeliverMaxLatency DeliveryPolicy = iota
	// DeliverMinLatency delivers at the earliest free instant (the
	// adversarial choice against programs that assume slowness).
	DeliverMinLatency
	// DeliverRandom picks a uniformly random free instant in the
	// window, seeded by the machine seed.
	DeliverRandom
)

func (d DeliveryPolicy) String() string {
	switch d {
	case DeliverMaxLatency:
		return "max-latency"
	case DeliverMinLatency:
		return "min-latency"
	case DeliverRandom:
		return "random"
	default:
		return fmt.Sprintf("DeliveryPolicy(%d)", uint8(d))
	}
}

// Result reports the outcome of executing a Program on a Machine.
type Result struct {
	// Time is the completion time: the maximum final local clock
	// over all processors.
	Time int64
	// LastDelivery is the arrival time of the last message; it can
	// exceed Time if messages were still in flight at termination.
	LastDelivery int64
	// MessagesSent counts all submissions.
	MessagesSent int64
	// StallEvents counts messages whose acceptance was delayed past
	// their submission instant (zero for a stall-free execution).
	StallEvents int64
	// StallCycles totals, over all processors, the cycles spent in
	// the stalling state.
	StallCycles int64
	// MaxBufferDepth is the peak number of delivered-but-unacquired
	// messages at any single processor, relevant to the paper's
	// bounded-buffer discussion of the G <= L constraint.
	MaxBufferDepth int
	// ProcTimes holds each processor's final local clock.
	ProcTimes []int64
}

// Option configures a Machine.
type Option func(*Machine)

// WithDeliveryPolicy selects the message delivery-time policy
// (default DeliverMaxLatency).
func WithDeliveryPolicy(p DeliveryPolicy) Option {
	return func(m *Machine) { m.policy = p }
}

// WithSeed seeds the machine's random stream (used by DeliverRandom
// and AcceptRandom).
//
// Determinism contract: the i-th call to Run (counting from 0) draws
// its randomness from a stream derived deterministically from
// (seed, i). Two machines built with the same seed therefore replay
// identical executions run for run, and any single run is exactly
// reproducible, while consecutive Run calls on one machine observe
// fresh admissible executions — repeated trials under DeliverRandom
// or AcceptRandom have real variance. Run 0 uses the seed unchanged,
// so recorded single-run results stay valid across this contract.
func WithSeed(seed uint64) Option {
	return func(m *Machine) { m.seed = seed }
}

// WithStrictStallFree makes Run return an error if any execution step
// stalls. Programs the paper calls "stall-free" are run under this
// option in tests to certify the claim.
func WithStrictStallFree() Option {
	return func(m *Machine) { m.strictStallFree = true }
}

// WithSlowPath disables the coroutine handshake and the proc-local
// fast path, forcing every processor operation through the original
// per-op channel rendezvous on a dedicated goroutine. Observable
// behavior is identical; the differential fuzz test and the golden
// suite use this engine as the oracle the fast path must match
// bit for bit.
//
// bsplogpvet: engine-internal. The slow path exists as the fuzzing
// oracle; experiments must measure the shipped fast path, so the
// apidiscipline analyzer flags uses outside internal/logp.
func WithSlowPath() Option {
	return func(m *Machine) { m.slowPath = true }
}

// AcceptOrder selects which waiting submissions the Stalling Rule
// accepts first when a destination has fewer free slots than waiting
// messages. The paper fixes only the count min(k, s); "the order in
// which messages are accepted [is] completely unspecified ... we
// assume that any order is possible", so correct programs must work
// under every choice.
type AcceptOrder uint8

const (
	// AcceptFIFO takes the oldest submission (ties by processor id).
	AcceptFIFO AcceptOrder = iota
	// AcceptLIFO takes the newest submission, starving early senders.
	AcceptLIFO
	// AcceptRandom takes a uniformly random waiting submission.
	AcceptRandom
)

func (o AcceptOrder) String() string {
	switch o {
	case AcceptFIFO:
		return "fifo"
	case AcceptLIFO:
		return "lifo"
	case AcceptRandom:
		return "random"
	default:
		return fmt.Sprintf("AcceptOrder(%d)", uint8(o))
	}
}

// WithAcceptOrder selects the Stalling Rule's acceptance order
// (default AcceptFIFO).
func WithAcceptOrder(o AcceptOrder) Option {
	return func(m *Machine) { m.acceptOrder = o }
}

// Machine is an executable LogP virtual machine. It is not safe for
// concurrent use; a single Run executes at a time.
type Machine struct {
	params          Params
	policy          DeliveryPolicy
	seed            uint64
	strictStallFree bool
	slowPath        bool
	acceptOrder     AcceptOrder
	eventLog        func(Event)
	auditor         *Auditor // per-run, when the process-wide audit hook is on
	msgSeq          int64

	rng      *stats.RNG
	procs    []*proc
	capacity int64 // params.Capacity(), cached off the per-instant path

	// arena backs every proc record (see arena.go): chunked slabs
	// reset wholesale between Runs, so a warm machine's startup sweep
	// allocates no per-processor objects and the GC scans chunks, not
	// a million individual procs.
	arena procArena

	// Scale-mode machinery (see lazy.go and script.go). script is the
	// Script driving the current RunScript, curProg the Program of the
	// current Run (for lazy coroutine instantiation), passiveStart the
	// WithPassiveStart predicate. procFree pools recycled processor
	// structs; startedBits marks ids ever materialized this run, so a
	// nil procs slot is a template when clear and a recycled halted
	// processor when set. procTimes, doneStall and doneBufLen retire
	// the still-observable facts of recycled processors; doneCount and
	// templateCount replace the O(P) completion scan.
	script        Script
	curProg       Program
	passiveStart  func(int) bool
	procFree      []*proc
	startedBits   []uint64
	templateCount int
	doneCount     int
	procTimes     []int64
	doneStall     int64
	doneBufLen    map[int]int

	// events holds the medium's pending events: deliveries and
	// submissions threaded through their slab records' next field,
	// popped in (time, kind, push order) order — deliveries before
	// submissions within an instant. It is a ring of per-instant
	// buckets two latency windows wide (see horizon.Events) whose base
	// follows the committed instant and the committing processor's
	// clock: every delivery lands within L of the instant being
	// committed and every submission within max(o, G) <= L of its
	// processor's clock, so every event fits the ring and pushes and
	// pops cost O(1).
	events horizon.Events
	// recNext links a record into the event queue's FIFOs; it is built
	// once per machine so reset allocates nothing.
	recNext func(int32) *int32

	// ready holds the runnable processors keyed by (clock, id) in
	// per-clock buckets (see horizon.Ready); it replaces the per-step
	// O(P) scan of the first engine version. A processor is queued
	// exactly while its state is stateReady and the scheduler is not
	// already committed to running it. Its clock only advances while
	// it is out of the queue, so the key never goes stale.
	ready horizon.Ready

	pendingQ  [][]int32 // per destination: recSlab indices, FIFO by (subAt, src)
	inTransit []int64   // per destination

	// recSlab backs every message's single record for its whole
	// lifecycle — pending-queue entry, in-flight delivery, buffered
	// arrival — so the pending/in-flight/buffer structures exchange
	// int32 indices instead of copying Message records, and freed
	// records recycle through the recFree intrusive free list; the
	// steady-state message path allocates nothing. The records hold no
	// pointers: Bodies sit in the bodies side table (see msgRec).
	recSlab []msgRec
	recFree int32
	bodies  bodies.Table

	// Reserved delivery instants, one ring-buffer bitset per
	// destination instead of the first version's map[int64]struct{}.
	// Instant d occupies bit (d mod window) of destination dst's
	// slotWords words at slotBits[dst*slotWords:]. All live
	// reservations for a destination lie within a span of at most L
	// instants (they sit in (a, a+L] for the latest acceptance time a,
	// and the delivery event at each instant clears its bit), so a
	// window of L+1 instants can never alias two live reservations.
	slotBits  []uint64
	slotWords int
	window    int64

	// Per-instant scratch, reused across processInstant calls so the
	// hot path does not allocate: one bit per processor id, consumed in
	// ascending word/bit order, which visits processors in id order
	// without the sorting pass an id list would need. Each set is
	// cleared as it is iterated, so the words are all-zero between
	// instants.
	dirtyBits    []uint64
	wakeSendBits []uint64
	wakeRecvBits []uint64
	procWords    int

	// resumeFloor is a lower bound on the clock at which any processor
	// that the scheduler is about to re-enter — but which is not yet
	// in the ready queue — may next act. It is 0 during the startup
	// sweep (unstarted programs begin at clock 0), the current instant
	// during processInstant's wake sweeps, and MaxInt64 otherwise.
	// localWatermark folds it into the fast-path delivery watermark.
	resumeFloor int64

	// Buffered trace/audit emission: when a sink is installed, events
	// accumulate in evBuf and drain in commit order at the end of each
	// processInstant and before Run returns, instead of one virtual
	// call per event on the hot path.
	emitOn bool
	evBuf  []Event

	lastDelivery int64
	maxBuf       int
	totalMsgs    int64
	stallEvents  int64
	simEvents    int64 // committed medium events + executed processor ops

	procErr error

	// liveProcs counts program goroutines/coroutines between start and
	// epilogue; Run leaves it at zero on every path (the shutdown
	// regression tests assert this). liveWG tracks the slow-path
	// goroutines so shutdown can wait for poisoned ones to finish
	// unwinding before Run returns.
	liveProcs atomic.Int64
	liveWG    sync.WaitGroup

	runs uint64 // completed Run calls, mixed into the per-run reseed
}

// shutdown unwinds every still-live program at the end of a Run. A
// fast-path coroutine is stopped (its parked yield reports false and
// the program unwinds through errStopped); stop is synchronous, so the
// coroutine has fully unwound when it returns, and stopping an already
// finished coroutine is a no-op. A slow-path goroutine is parked in
// call's response receive (the engine answered or consumed every
// request before returning), so a single poison response releases it;
// the WaitGroup then holds Run until every goroutine's unwind — the
// panic recovery and epilogue, not just the receive — has completed,
// so a failed Run never leaks program goroutines into the caller's
// world (or into this machine's next Run).
//
//hot:cold per-Run epilogue
func (m *Machine) shutdown() {
	for _, p := range m.procs {
		if p == nil {
			continue
		}
		if p.fast {
			if p.stop != nil {
				p.stop()
			}
		} else if p.state != stateDone {
			p.res <- response{poison: true}
		}
	}
	m.liveWG.Wait()
	// The retained machine must pin no guest memory between Runs: drop
	// the Bodies of never-acquired messages (buffered at a halted
	// processor) and, in the Program form, whose messages may carry a
	// Body, every processor's last request and response.
	m.bodies.Reset()
	if m.script == nil {
		for _, p := range m.procs {
			if p != nil {
				p.pending, p.out, p.final, p.resp = request{}, request{}, request{}, response{}
			}
		}
	}
}

// NewMachine builds a machine with the given parameters, which must
// Validate; invalid parameters panic, since they indicate a programming
// error in the experiment setup rather than a runtime condition. The
// panic message is exactly the Params.Validate error for the same
// parameters, prefixed "logp: NewMachine:".
func NewMachine(params Params, opts ...Option) *Machine {
	if err := params.Validate(); err != nil {
		panic("logp: NewMachine: " + strings.TrimPrefix(err.Error(), "logp: "))
	}
	m := &Machine{params: params, policy: DeliverMaxLatency, seed: 1}
	m.arena.sizeFor(params.P)
	for _, o := range opts {
		o(m)
	}
	return m
}

// Params returns the machine parameters.
func (m *Machine) Params() Params { return m.params }

// SetSeed re-seeds the machine as if it had been built with
// WithSeed(seed): the run counter restarts, so the next Run samples
// exactly the execution a fresh machine's first Run would. It exists
// so that experiment loops sweeping seeds can reuse one machine's
// processor pool, slabs, and queues across trials instead of building
// a machine per seed.
//
// bsplogpvet: engine-internal. Only the engine family (the core and
// netlogp cross-simulators) may call this; experiment code reseeding
// mid-run would silently fork the trace from the configured seed, so
// the apidiscipline analyzer flags any other caller.
func (m *Machine) SetSeed(seed uint64) {
	m.seed = seed
	m.runs = 0
}

// errStopped is panicked into program goroutines when the engine shuts
// down, unwinding them cleanly.
var errStopped = errors.New("logp: machine stopped")

func isStopped(r interface{}) bool {
	err, ok := r.(error)
	return ok && errors.Is(err, errStopped)
}

// sequence adapts prog to an iter.Pull coroutine. The engine's next()
// resumes the program until its next engine call, which stores the
// request in p.out, yields, and parks until the engine answers in
// p.resp. A program that returns or panics cannot yield its terminal
// state, so the epilogue records it in p.final for the engine to read
// when next() reports false. A coroutine unwound by stop() returns
// through the errStopped arm without recording anything.
func (p *proc) sequence(prog Program) iter.Seq[token] {
	//lint:ignore allocdiscipline one iterator closure per processor coroutine, created at startup or lazy instantiation, not per event
	return func(yield func(token) bool) {
		p.yield = yield
		p.m.liveProcs.Add(1)
		defer func() {
			p.m.liveProcs.Add(-1)
			switch r := recover(); {
			case r == nil:
				p.final = request{kind: opDone}
			case isStopped(r):
				// Unwound by shutdown; the engine no longer reads.
			default:
				p.final = request{kind: opPanic, err: fmt.Errorf("logp: processor %d panicked: %v", p.id, r)}
			}
		}()
		prog(p)
	}
}

// runner hosts one slow-path program goroutine. Its terminal sends
// need no shutdown select: program code (including this deferred
// epilogue) only runs while the engine is parked in await(p), which
// consumes the send. A goroutine unwound by a poison response returns
// through the errStopped arm without sending anything.
func runner(p *proc, prog Program) {
	defer p.m.liveWG.Done()
	defer p.m.liveProcs.Add(-1)
	defer func() {
		r := recover()
		if r == nil {
			p.req <- request{kind: opDone}
			return
		}
		if isStopped(r) {
			return
		}
		p.req <- request{kind: opPanic, err: fmt.Errorf("logp: processor %d panicked: %v", p.id, r)}
	}()
	prog(p)
}

// Run executes prog on every processor and returns the measured
// Result. Run may be called repeatedly; the i-th call re-seeds from
// (seed, i) per the WithSeed determinism contract, so repeated trials
// under DeliverRandom or AcceptRandom sample distinct admissible
// executions while remaining reproducible from the machine seed.
//
//hot:path entry to the per-event engines; setup/epilogue callees are //hot:cold
func (m *Machine) Run(prog Program) (Result, error) {
	m.reset()
	defer m.shutdown()
	m.curProg = prog
	defer func() { m.curProg = nil }()

	if err := m.runSequential(prog); err != nil {
		return Result{}, err
	}
	return m.finishRun()
}

// finishRun drains in-flight deliveries (so LastDelivery and
// buffer-depth statistics reflect the whole execution) and assembles
// the Result; it is shared by Run and RunScript.
//
//hot:cold per-Run epilogue: the Result assembly may allocate
func (m *Machine) finishRun() (Result, error) {
	for m.events.Len() > 0 {
		m.processInstant(m.events.MinTime())
	}
	m.drainEmit()
	addSimEvents(m.simEvents)

	res := Result{
		LastDelivery:   m.lastDelivery,
		MessagesSent:   m.totalMsgs,
		StallEvents:    m.stallEvents,
		MaxBufferDepth: m.maxBuf,
		StallCycles:    m.doneStall,
		ProcTimes:      make([]int64, m.params.P),
	}
	for i, p := range m.procs {
		t := int64(0)
		if p != nil {
			t = p.clock
			res.StallCycles += p.stallCycles
		} else {
			t = m.procTimes[i] // recycled after halting
		}
		res.ProcTimes[i] = t
		if t > res.Time {
			res.Time = t
		}
	}
	if m.auditor != nil {
		// A panicked processor strands messages mid-lifecycle; audit
		// only runs that completed, so the summary reflects the model,
		// not the crash.
		if m.procErr == nil {
			finishRunAudit(m.auditor, res)
		}
		m.auditor = nil
	}
	if m.procErr != nil {
		return res, m.procErr
	}
	if m.strictStallFree && m.stallEvents > 0 {
		return res, fmt.Errorf("logp: execution stalled %d times under WithStrictStallFree", m.stallEvents)
	}
	return res, nil
}

// runSequential is the single-goroutine scheduler: start the
// processors one at a time, then interleave instants and operations
// from one commit loop.
//
//hot:cold per-Run startup: coroutine and goroutine launch may allocate
func (m *Machine) runSequential(prog Program) error {
	// Start processors one at a time so that the code before each
	// program's first engine call is serialized like everything else.
	// Programs not yet started sit at clock 0, which resumeFloor
	// advertises to the fast path of the ones already running.
	m.resumeFloor = 0
	for i := 0; i < m.params.P; i++ {
		if m.passiveStart != nil && !m.slowPath && m.passiveStart(i) {
			m.templateCount++
			continue
		}
		p := m.ensureProc(i)
		p.reinit(m.slowPath)
		if p.fast {
			p.watermark = m.localWatermark()
			p.next, p.stop = iter.Pull(p.sequence(prog))
		} else {
			if p.req == nil {
				p.req = make(chan request)
				p.res = make(chan response)
			}
			m.liveProcs.Add(1)
			m.liveWG.Add(1)
			go runner(p, prog)
		}
		m.await(p)
		if p.state == stateReady {
			m.pushReady(p)
		}
	}
	m.resumeFloor = math.MaxInt64
	return m.commitLoop()
}

// commitLoop is the sequential scheduler's main loop, shared by the
// Program and Script forms: commit medium instants in time order and
// processor operations in (clock, id) order until every processor is
// done or nothing can make progress.
//
//hot:path the sequential engine's per-event commit loop
func (m *Machine) commitLoop() error {
	for {
		if m.events.Len() > 0 && m.events.MinTime() <= m.ready.MinClock() {
			m.processInstant(m.events.MinTime())
			continue
		}
		if m.ready.Len() == 0 {
			if m.templateCount > 0 {
				// Nothing can deliver to the remaining passive
				// processors anymore; run their prefixes as the dense
				// startup sweep would have, then re-judge completion.
				m.finalizeTemplates()
				continue
			}
			if m.allDone() {
				return nil
			}
			m.drainEmit()
			if m.procErr != nil {
				// A processor panic often strands its peers on
				// Recv; report the root cause, not the symptom.
				return m.procErr
			}
			return m.deadlockError()
		}
		// Run the minimum-(clock, id) processor, and keep running
		// whichever processor is the scheduler's next choice without
		// returning to the outer loop: consecutive operations of one
		// processor skip the ready queue entirely.
		p := m.popReady()
		for {
			// Every event at or before p.clock is committed and nothing
			// can be scheduled below it any more (see events).
			m.events.Advance(p.clock)
			m.exec(p)
			if p.state != stateReady {
				break
			}
			if m.events.Len() > 0 && m.events.MinTime() <= p.clock {
				m.pushReady(p)
				break
			}
			if m.readyBefore(p) {
				m.pushReady(p)
				p = m.popReady()
			}
		}
	}
}

// reset prepares the machine for one Run: every steady-state buffer the
// hot loops index into is (re)sized here.
//
//hot:cold per-Run setup owns all steady-state allocation
func (m *Machine) reset() {
	p := m.params.P
	// Mix the run counter into the seed (golden-ratio stride, as in
	// SplitMix64 seeding) so run i is a deterministic function of
	// (seed, i) and run 0 keeps the plain seed.
	if m.rng == nil {
		m.rng = stats.NewRNG(m.seed + m.runs*0x9e3779b97f4a7c15)
	} else {
		m.rng.Reseed(m.seed + m.runs*0x9e3779b97f4a7c15)
	}
	m.runs++
	m.capacity = m.params.Capacity()
	// Processor records are materialized on demand (ensureProc) out of
	// the arena: resetting it wholesale makes every record of the
	// previous run reusable without freeing anything, so a warm
	// machine's startup sweep re-hands the same chunk memory in the
	// same order. The recycle freelist is emptied with it — its
	// entries point into the arena being reset.
	if len(m.procs) != p {
		m.procs = make([]*proc, p)
	} else {
		clear(m.procs)
	}
	m.procFree = m.procFree[:0]
	m.arena.reset()
	m.startedBits = reuseWords(m.startedBits, (p+63)/64)
	m.templateCount = 0
	m.doneCount = 0
	m.doneStall = 0
	// Eager, not lazy-on-first-recycle: the first halted-processor
	// delivery must not be the event that pays for the map (the
	// allocdiscipline analyzer rejects the lazy form on the hot path).
	if m.doneBufLen == nil {
		m.doneBufLen = make(map[int]int)
	} else {
		clear(m.doneBufLen)
	}
	// procTimes retires recycled scripted processors' clocks; size it
	// here so maybeRecycle never allocates mid-run.
	if m.script != nil && len(m.procTimes) != p {
		m.procTimes = make([]int64, p)
	}
	// Both queues cover two latency windows: deliveries land within L
	// of the committed instant, submissions within max(o, G) <= L of
	// the committing processor's clock.
	if m.recNext == nil {
		m.recNext = func(i int32) *int32 { return &m.recSlab[i].next }
	}
	span := 2 * (m.params.L + 1)
	m.events.Reset(span, 2, m.recNext)
	m.ready.Reset(span, p)
	if len(m.pendingQ) == p {
		for i := range m.pendingQ {
			m.pendingQ[i] = m.pendingQ[i][:0]
		}
	} else {
		m.pendingQ = make([][]int32, p)
	}
	if len(m.inTransit) == p {
		for i := range m.inTransit {
			m.inTransit[i] = 0
		}
	} else {
		m.inTransit = make([]int64, p)
	}
	m.recSlab = m.recSlab[:0]
	m.recFree = -1
	m.bodies.Reset()

	// Ring bitsets: one window of L+1 instants per destination, laid
	// out as a single flat word slice reused across runs.
	m.window = m.params.L + 1
	m.slotWords = int((m.window + 63) / 64)
	if need := p * m.slotWords; cap(m.slotBits) >= need {
		m.slotBits = m.slotBits[:need]
		for i := range m.slotBits {
			m.slotBits[i] = 0
		}
	} else {
		m.slotBits = make([]uint64, need)
	}
	m.procWords = (p + 63) / 64
	m.dirtyBits = reuseWords(m.dirtyBits, m.procWords)
	m.wakeSendBits = reuseWords(m.wakeSendBits, m.procWords)
	m.wakeRecvBits = reuseWords(m.wakeRecvBits, m.procWords)
	m.resumeFloor = math.MaxInt64
	m.evBuf = m.evBuf[:0]

	m.lastDelivery = 0
	m.maxBuf = 0
	m.totalMsgs = 0
	m.stallEvents = 0
	m.simEvents = 0
	m.procErr = nil
	m.msgSeq = 0
	m.auditor = newRunAuditor(m.params)
	m.emitOn = m.auditor != nil || m.eventLog != nil
}

// slotTaken reports whether delivery instant d is reserved at dst.
func (m *Machine) slotTaken(dst int, d int64) bool {
	idx := int(d % m.window)
	return m.slotBits[dst*m.slotWords+idx>>6]&(1<<uint(idx&63)) != 0
}

// reserveSlot marks delivery instant d as reserved at dst.
func (m *Machine) reserveSlot(dst int, d int64) {
	idx := int(d % m.window)
	m.slotBits[dst*m.slotWords+idx>>6] |= 1 << uint(idx&63)
}

// releaseSlot clears the reservation for instant d at dst.
func (m *Machine) releaseSlot(dst int, d int64) {
	idx := int(d % m.window)
	m.slotBits[dst*m.slotWords+idx>>6] &^= 1 << uint(idx&63)
}

// emit buffers ev for the run's auditor and the installed event sink.
// With auditing off and no sink this is one flag check — the hot path
// stays free. Buffered events drain in commit order (drainEmit), so
// sinks observe exactly the sequence the unbuffered engine produced.
func (m *Machine) emit(ev Event) {
	if m.emitOn {
		m.evBuf = append(m.evBuf, ev)
	}
}

// drainEmit forwards the buffered events to the auditor and sink in
// the order they were emitted and recycles the buffer.
func (m *Machine) drainEmit() {
	if len(m.evBuf) == 0 {
		return
	}
	for i := range m.evBuf {
		ev := m.evBuf[i]
		if m.auditor != nil {
			m.auditor.Observe(ev)
		}
		if m.eventLog != nil {
			m.eventLog(ev)
		}
		m.evBuf[i] = Event{} // drop Body references
	}
	m.evBuf = m.evBuf[:0]
}

// newRec records msg, submitted at instant at as message id, in the
// slab and returns its index, reusing a free-listed record when one
// exists. A Body takes a side-table slot.
func (m *Machine) newRec(msg Message, at, id int64) int32 {
	r := msgRec{
		src: int32(msg.Src), dst: int32(msg.Dst), tag: msg.Tag, next: -1, body: m.bodies.Put(msg.Body),
		payload: msg.Payload, aux: msg.Aux, at: at, msgID: id,
	}
	if i := m.recFree; i >= 0 {
		m.recFree = m.recSlab[i].next
		m.recSlab[i] = r
		return i
	}
	m.recSlab = append(m.recSlab, r)
	return int32(len(m.recSlab) - 1)
}

// appendBuf links the delivered record idx onto p's input FIFO.
func (m *Machine) appendBuf(p *proc, idx int32) {
	m.recSlab[idx].next = -1
	if p.bufTail >= 0 {
		m.recSlab[p.bufTail].next = idx
	} else {
		p.bufHead = idx
	}
	p.bufTail = idx
	p.bufLen++
}

// popBufFree unlinks p's oldest buffered arrival, recycles its record
// and returns its message. The Body's side-table slot is freed with
// the record, so the table does not keep a Body past its acquisition.
func (m *Machine) popBufFree(p *proc) Message {
	i := p.bufHead
	r := &m.recSlab[i]
	msg := r.message(m.bodies.Take(r.body))
	p.bufHead = r.next
	if p.bufHead < 0 {
		p.bufTail = -1
	}
	p.bufLen--
	r.next = m.recFree
	m.recFree = i
	return msg
}

func (m *Machine) allDone() bool {
	return m.doneCount == m.params.P
}

//hot:cold failure epilogue: the diagnostic rendering may allocate
func (m *Machine) deadlockError() error {
	var waitMsg, waitAcc []int
	for _, p := range m.procs {
		if p == nil {
			continue // recycled after halting; templates are finalized first
		}
		switch p.state {
		case stateWaitMsg:
			waitMsg = append(waitMsg, p.id)
		case stateWaitAccept:
			waitAcc = append(waitAcc, p.id)
		}
	}
	return fmt.Errorf("logp: deadlock: processors %v blocked on Recv, %v blocked on Send, no messages in flight", waitMsg, waitAcc)
}

// localWatermark computes the delivery watermark handed to a fast-path
// program about to run: no message can reach its input buffer at any
// instant strictly below the returned value, so Buffered and failing
// TryRecv resolve proc-side while the local clock stays below it.
// Three sources bound it. Committed-but-unprocessed events can place a
// delivery no earlier than the event queue's minimum time. Another
// ready processor at clock c submits no earlier than c, and every
// delivery lands strictly after its acceptance, hence at c+1 or later.
// resumeFloor covers processors the scheduler knows are about to act
// at a given clock but has not yet re-entered into the ready queue
// (program startup and the per-instant wake sweeps).
func (m *Machine) localWatermark() int64 {
	w := m.events.MinTime()
	if m.ready.Len() > 0 && m.ready.MinClock()+1 < w {
		w = m.ready.MinClock() + 1
	}
	if m.resumeFloor != math.MaxInt64 && m.resumeFloor+1 < w {
		w = m.resumeFloor + 1
	}
	return w
}

// await obtains the next request from p's program and records it. The
// fast path resumes the coroutine (running the program inline until
// its next engine call); the slow path reads the request channel.
// Local operations the program resolved proc-side since the last
// crossing are folded into simEvents here, preserving the per-op
// accounting of the serialized engine.
func (m *Machine) await(p *proc) {
	if p.fast {
		p.advance()
	} else {
		p.pending = <-p.req
	}
	if p.localOps != 0 {
		m.simEvents += p.localOps
		p.localOps = 0
	}
	switch p.pending.kind {
	case opDone:
		p.state = stateDone
		m.doneCount++
		m.maybeRecycle(p)
	case opPanic:
		if m.procErr == nil {
			m.procErr = p.pending.err
		}
		p.state = stateDone
		m.doneCount++
		m.maybeRecycle(p)
	default:
		p.state = stateReady
	}
}

// advance runs p to its next engine crossing and parks the request in
// p.pending: a coroutine is resumed, a scripted processor (p.next ==
// nil under RunScript) runs its state-machine segment inline.
func (p *proc) advance() {
	if p.next == nil {
		p.scriptSegment()
		return
	}
	if _, ok := p.next(); ok {
		p.pending = p.out
	} else {
		p.pending = p.final
	}
}

// readyBefore reports whether the ready queue's minimum precedes p in
// (clock, id) order; the id tie-break reproduces the old linear scan,
// which kept the lowest-id processor among clock ties. Only a clock tie
// asks for the minimum id.
func (m *Machine) readyBefore(p *proc) bool {
	if m.ready.Len() == 0 {
		return false
	}
	c := m.ready.MinClock()
	return c < p.clock || c == p.clock && m.ready.MinID() < int32(p.id)
}

// pushReady queues p at its clock.
func (m *Machine) pushReady(p *proc) {
	m.ready.Push(p.clock, int32(p.id))
}

// popReady removes and returns the ready processor with the minimum
// (clock, id).
func (m *Machine) popReady() *proc {
	_, id := m.ready.Pop()
	return m.procs[id]
}

// resume answers p's pending request and obtains the next one. The
// fast path refreshes p's delivery watermark first: the program is
// about to run ahead of the engine and needs to know below which
// instant its local view of the input buffer is complete.
func (m *Machine) resume(p *proc, r response) {
	if p.fast {
		p.resp = r
		p.watermark = m.localWatermark()
		m.await(p)
		return
	}
	p.res <- r
	m.await(p)
}

// exec performs p's pending operation. p must be the ready processor
// with the minimum local clock, which guarantees that every medium
// event at or before p.clock has been committed. Note that exec does
// not re-enter p into the ready queue; its caller does.
func (m *Machine) exec(p *proc) {
	m.simEvents++
	req := p.pending
	switch req.kind {
	case opCompute:
		p.clock += req.n
		m.resume(p, response{})

	case opIdle:
		if req.n > p.clock {
			p.clock = req.n
		}
		m.resume(p, response{})

	case opBuffered:
		n := int64(0)
		for i := p.bufHead; i >= 0; i = m.recSlab[i].next {
			if m.recSlab[i].at > p.clock {
				break
			}
			n++
		}
		m.resume(p, response{n: n})

	case opSend:
		s := p.clock + m.params.O
		if s < p.nextComm {
			s = p.nextComm
		}
		p.nextComm = s + m.params.G
		p.clock = s
		p.state = stateWaitAccept
		m.totalMsgs++
		m.msgSeq++
		if m.emitOn {
			m.emit(Event{Time: s, Kind: EvSubmit, Seq: m.msgSeq, Msg: req.msg})
		}
		m.pushEvent(s, evSubmission, m.newRec(req.msg, s, m.msgSeq))

	case opRecv:
		if p.bufLen > 0 {
			m.completeRecv(p)
		} else {
			p.state = stateWaitMsg
		}

	case opTryRecv:
		if p.bufLen > 0 && m.recSlab[p.bufHead].at <= p.clock && p.nextComm <= p.clock {
			// The head has arrived and the gap allows it, so the
			// acquisition happens at p.clock, exactly as a Recv would.
			m.completeRecv(p)
		} else {
			p.clock++ // one polling cycle, so busy-wait loops consume time
			m.resume(p, response{})
		}

	default:
		panic(fmt.Sprintf("logp: unexpected pending op %d", req.kind))
	}
}

// completeRecv acquires the oldest buffered message for p and resumes
// its program.
func (m *Machine) completeRecv(p *proc) {
	head := &m.recSlab[p.bufHead]
	r := p.clock
	if head.at > r {
		r = head.at
	}
	if p.nextComm > r {
		r = p.nextComm
	}
	seq := head.msgID
	msg := m.popBufFree(p)
	if m.emitOn {
		m.emit(Event{Time: r, Kind: EvAcquire, Seq: seq, Msg: msg})
	}
	p.clock = r + m.params.O
	p.nextComm = r + m.params.G
	p.recvd++
	p.state = stateReady
	m.resume(p, response{msg: msg, ok: true})
}

// processInstant commits every medium event scheduled at the earliest
// pending instant t: deliveries free capacity slots and append to input
// buffers, new submissions join their destination queues, and then the
// Stalling Rule acceptance pass runs for each touched destination.
// Processors whose blocking operation completed are woken afterwards in
// id order.
func (m *Machine) processInstant(t int64) {
	capacity := m.capacity
	// Processors woken below act at instant t; until each is back in
	// the ready queue, the floor keeps run-ahead peers honest.
	m.resumeFloor = t

	for m.events.Len() > 0 && m.events.MinTime() == t {
		idx, kind := m.events.Pop()
		m.simEvents++
		rec := &m.recSlab[idx]
		dst := int(rec.dst)
		if eventKind(kind) == evDelivery {
			m.inTransit[dst]--
			m.releaseSlot(dst, t)
			if m.emitOn {
				m.emit(Event{Time: t, Kind: EvDeliver, Seq: rec.msgID, Msg: rec.message(m.bodies.Get(rec.body))})
			}
			p := m.procs[dst]
			if p == nil && !m.started(dst) {
				// First message for a passive template: materialize it
				// and run its local prefix now (unobservable by the
				// passivity contract), then deliver as usual.
				m.instantiateLazy(dst, t)
				p = m.procs[dst] // nil again if the prefix halted and was recycled
			}
			rec.at = t
			if p == nil {
				// The destination halted and was recycled. The dense
				// engine would append to the done processor's buffer
				// forever; only the depth is observable, so track it in
				// doneBufLen and free the record and its Body slot
				// immediately.
				n := m.doneBufLen[dst] + 1
				m.doneBufLen[dst] = n
				if n > m.maxBuf {
					m.maxBuf = n
				}
				m.bodies.Take(rec.body)
				rec.next = m.recFree
				m.recFree = idx
			} else {
				m.appendBuf(p, idx)
				if p.bufLen > m.maxBuf {
					m.maxBuf = p.bufLen
				}
			}
			m.lastDelivery = t
			m.dirtyBits[dst>>6] |= 1 << (uint(dst) & 63)
			if p != nil && p.state == stateWaitMsg {
				m.wakeRecvBits[dst>>6] |= 1 << (uint(dst) & 63)
			}
		} else {
			// Insert keeping FIFO order by (subAt, src); rec.at is the
			// submission instant while the record waits for acceptance.
			q := m.pendingQ[dst]
			i := len(q)
			for i > 0 && m.subBefore(idx, q[i-1]) {
				i--
			}
			//lint:ignore hotloop FIFO insert into the retained per-destination pending queue; capacity reaches the in-flight high-water and is reused across instants
			q = append(q, 0)
			copy(q[i+1:], q[i:])
			q[i] = idx
			m.pendingQ[dst] = q
			m.dirtyBits[dst>>6] |= 1 << (uint(dst) & 63)
		}
	}

	for dst := range eachBit(m.dirtyBits) {
		for m.inTransit[dst] < capacity && len(m.pendingQ[dst]) > 0 {
			q := m.pendingQ[dst]
			idx := 0
			switch m.acceptOrder {
			case AcceptLIFO:
				idx = len(q) - 1
			case AcceptRandom:
				idx = m.rng.Intn(len(q))
			}
			ri := q[idx]
			copy(q[idx:], q[idx+1:])
			m.pendingQ[dst] = q[:len(q)-1]
			sub := &m.recSlab[ri]
			sid := int(sub.src)
			sender := m.procs[sid]
			if t > sub.at {
				sender.stallCycles += t - sub.at
				sender.stallEvents++
				m.stallEvents++
			}
			d := m.chooseSlot(dst, t)
			m.reserveSlot(dst, d)
			m.inTransit[dst]++
			if m.inTransit[dst] > capacity {
				panic(fmt.Sprintf("logp: capacity constraint violated at destination %d (bug)", dst))
			}
			if m.emitOn {
				m.emit(Event{Time: t, Kind: EvAccept, Seq: sub.msgID, Msg: sub.message(m.bodies.Get(sub.body))})
			}
			m.pushEvent(d, evDelivery, ri)
			m.wakeSendBits[sid>>6] |= 1 << (uint(sid) & 63)
		}
	}

	for id := range eachBit(m.wakeSendBits) {
		p := m.procs[id]
		p.clock = t // acceptance instant; stall cycles already accounted
		p.sent++
		p.state = stateReady
		m.resume(p, response{})
		if p.state == stateReady {
			m.pushReady(p)
		}
	}

	for id := range eachBit(m.wakeRecvBits) {
		p := m.procs[id]
		if p.state == stateWaitMsg && p.bufLen > 0 {
			m.completeRecv(p)
			if p.state == stateReady {
				m.pushReady(p)
			}
		}
	}
	m.resumeFloor = math.MaxInt64
	m.drainEmit()
}

// reuseWords returns a zeroed word slice of length n, reusing s's
// backing array when it is large enough.
func reuseWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// eachBit iterates the set bits of a per-processor bitset in ascending
// id order — the order the former sorted wake lists produced — and
// clears each word as it is consumed, leaving the set empty.
func eachBit(words []uint64) func(func(int) bool) {
	//lint:ignore allocdiscipline range-over-func iterator: every inlined use stack-allocates the closure (the steady-state alloc guards pin zero); this is the un-inlined instantiation
	return func(yield func(int) bool) {
		for w := range words {
			word := words[w]
			words[w] = 0
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				if !yield(w<<6 | b) {
					// Restore the unconsumed remainder so the scratch
					// stays consistent on early exit.
					words[w] = word
					return
				}
			}
		}
	}
}

// subBefore orders pending submissions by (submission instant, source
// id), the Stalling Rule's FIFO key.
func (m *Machine) subBefore(a, b int32) bool {
	ra, rb := &m.recSlab[a], &m.recSlab[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.src < rb.src
}

// chooseSlot picks a free delivery instant in (a, a+L] for destination
// dst under the configured policy. A free instant always exists because
// the capacity constraint keeps at most Capacity()-1 other messages in
// transit and Capacity() <= L. The probes hit the destination's ring
// bitset, so no allocation or hashing happens on this path; the
// DeliverRandom reservoir scan visits free instants in the same order
// as the original map-based implementation, preserving the RNG stream
// and hence recorded executions.
func (m *Machine) chooseSlot(dst int, a int64) int64 {
	L := m.params.L
	switch m.policy {
	case DeliverMinLatency:
		for d := a + 1; d <= a+L; d++ {
			if !m.slotTaken(dst, d) {
				return d
			}
		}
	case DeliverMaxLatency:
		for d := a + L; d > a; d-- {
			if !m.slotTaken(dst, d) {
				return d
			}
		}
	case DeliverRandom:
		// Single-pass reservoir choice among the free instants.
		var chosen int64 = -1
		free := 0
		for d := a + 1; d <= a+L; d++ {
			if m.slotTaken(dst, d) {
				continue
			}
			free++
			if m.rng.Intn(free) == 0 {
				chosen = d
			}
		}
		if chosen >= 0 {
			return chosen
		}
	}
	panic(fmt.Sprintf("logp: no free delivery slot for destination %d at time %d (capacity accounting bug)", dst, a))
}

// eventKind is an event's class in the event queue: deliveries pop
// before submissions within an instant.
type eventKind uint8

const (
	evDelivery eventKind = iota
	evSubmission
)

func (m *Machine) pushEvent(t int64, kind eventKind, idx int32) {
	m.events.Push(t, int(kind), idx)
}
