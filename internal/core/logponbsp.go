package core

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"repro/internal/bodies"
	"repro/internal/bsp"
	"repro/internal/horizon"
	"repro/internal/logp"
	"repro/internal/relation"
)

// LogPOnBSP executes LogP programs under BSP cost semantics, following
// the simulation of Theorem 1: the LogP computation is cut into cycles
// of CycleLen (the paper uses L/2) consecutive time units; each cycle
// becomes one BSP superstep in which processor i replays processor i's
// instructions, message submissions are gathered into the output pool,
// and everything submitted in cycle k is available at its destination
// at the start of cycle k+1.
//
// For a stall-free program every cycle routes an h-relation with
// h <= ceil(L/G), so the superstep costs CycleLen + g*h + l and the
// slowdown is O(1 + g/G + l/L). Cycles that exceed the capacity bound
// certify that the program is not stall-free; for those, ExtensionTime
// additionally charges the sorting-based preprocessing the paper
// sketches at the end of Section 3 (O(log p) sorting supersteps plus
// capacity-bounded delivery supersteps).
type LogPOnBSP struct {
	// LogP holds the parameters of the simulated (guest) machine.
	LogP logp.Params
	// BSP holds the parameters of the host machine. The zero value
	// selects matched parameters g = G, l = L.
	BSP bsp.Params
	// CycleLen is the number of LogP time units replayed per
	// superstep; 0 selects the paper's L/2.
	CycleLen int64
	// Fold simulates the p LogP processors on a BSP host with only
	// p/Fold processors, each replaying Fold guests per superstep —
	// the work-preserving variant the paper's footnote 1 credits to
	// Ramachandran et al. 0 or 1 selects the direct simulation. Fold
	// must divide P.
	Fold int

	// eng is the reusable replay engine: its slabs persist across Run
	// and RunScript calls and are reset wholesale (see cycleEngine).
	eng *cycleEngine
}

// Thm1Result reports the cost of a LogPOnBSP execution.
type Thm1Result struct {
	// BSPTime is the total BSP time sum(CycleLen + g*h_k + l).
	BSPTime int64
	// ExtensionTime equals BSPTime if the program is stall-free;
	// otherwise overloaded cycles are charged the sorting-based
	// extension instead of a direct h-relation.
	ExtensionTime int64
	// GuestTime is the LogP time replayed (max processor clock,
	// including in-flight deliveries).
	GuestTime int64
	// Cycles is the number of supersteps executed.
	Cycles int64
	// MessagesSent counts all submissions.
	MessagesSent int64
	// MaxCycleH is the largest per-cycle relation degree.
	MaxCycleH int64
	// CapacityViolations counts cycles whose relation exceeded
	// ceil(L/G), certifying a non-stall-free program.
	CapacityViolations int64
	// CycleH holds the relation degree of every cycle.
	CycleH []int64
}

// Slowdown returns BSPTime normalized by the guest LogP time actually
// replayed. Under Theorem 1's premises this is O(1 + g/G + l/L) for
// the direct simulation and O(Fold * (1 + g/G + l/L)) when folding.
func (r Thm1Result) Slowdown() float64 {
	if r.GuestTime == 0 {
		return 1
	}
	return float64(r.BSPTime) / float64(r.GuestTime)
}

// WorkRatio returns (hostP * BSPTime) / (guestP * GuestTime), the
// inefficiency of the simulation as a work ratio; a work-preserving
// simulation keeps it O(1 + g/G + l/L) independent of the folding
// factor.
func (r Thm1Result) WorkRatio(guestP, hostP int) float64 {
	if r.GuestTime == 0 || guestP == 0 {
		return 1
	}
	return float64(hostP) * float64(r.BSPTime) / (float64(guestP) * float64(r.GuestTime))
}

func (s *LogPOnBSP) params() (logp.Params, bsp.Params, int64, int) {
	lp := s.LogP
	fold := s.Fold
	if fold < 1 {
		fold = 1
	}
	bp := s.BSP
	if bp.P == 0 {
		g, l := matchedParams(lp)
		bp = bsp.Params{P: lp.P / fold, G: g, L: l}
	}
	cl := s.CycleLen
	if cl == 0 {
		cl = lp.L / 2
	}
	if cl < 1 {
		cl = 1
	}
	return lp, bp, cl, fold
}

// Run executes prog under the Theorem 1 construction and returns the
// accumulated BSP cost. The replay is deterministic: within a cycle
// processors are interleaved by local clock, and every message
// submitted in cycle k is delivered at the start of cycle k+1 in
// submission order, which is one of the admissible LogP executions for
// a stall-free program.
//
// Run and RunScript may be called repeatedly on one LogPOnBSP: the
// replay engine's slabs (guest records, message records, count
// columns, queues) are retained across calls and reset wholesale, so a
// warm simulator replays with near-zero steady-state allocation. A
// LogPOnBSP is therefore not safe for concurrent use.
func (s *LogPOnBSP) Run(prog logp.Program) (Thm1Result, error) {
	return s.execute(prog, nil)
}

// RunScript executes a logp.Script under the same Theorem 1
// construction. The scripted form drives every guest as an explicit
// state machine instead of a parked coroutine, so the replay fits at
// p = 10^6: per guest the engine holds one small cycleProc record and
// no goroutine stack. Script.Active is ignored here — every guest is
// started eagerly, which by the passivity contract is indistinguishable
// from lazy instantiation — and the replayed cost is identical to
// Run(logp.ScriptAsProgram(s)).
func (s *LogPOnBSP) RunScript(sc logp.Script) (Thm1Result, error) {
	return s.execute(nil, sc)
}

func (s *LogPOnBSP) execute(prog logp.Program, sc logp.Script) (Thm1Result, error) {
	lp, bp, cycleLen, fold := s.params()
	if err := lp.Validate(); err != nil {
		return Thm1Result{}, err
	}
	if err := bp.Validate(); err != nil {
		return Thm1Result{}, err
	}
	if lp.P%fold != 0 {
		return Thm1Result{}, fmt.Errorf("core: folding factor %d does not divide p = %d", fold, lp.P)
	}
	if bp.P != lp.P/fold {
		return Thm1Result{}, fmt.Errorf("core: BSP host has %d processors, need %d (p/fold)", bp.P, lp.P/fold)
	}
	if s.eng == nil {
		s.eng = &cycleEngine{}
	}
	eng := s.eng
	// The executed stalling extension needs a cycle's message pairs; it
	// only runs for the unfolded power-of-two replay, so pairs are
	// retained only there — everything else keeps O(1) per message.
	eng.reset(lp, cycleLen, fold, fold == 1 && isPow2(lp.P))
	defer eng.shutdown()
	var err error
	if sc != nil {
		err = eng.runScript(sc)
	} else {
		err = eng.run(prog)
	}
	if err != nil {
		return Thm1Result{}, err
	}
	return eng.result(bp), nil
}

// cycleEngine replays a LogP program with per-cycle bookkeeping. It is
// a reduced variant of the logp engine: the medium accepts every
// submission immediately and delivers it at the next cycle boundary.
//
// The engine is arena-shaped: every bulk structure is a flat slab that
// a LogPOnBSP retains across runs and reset() makes reusable without
// freeing. Guests live in one dense []cycleProc slab (no per-guest
// allocation, stable &procs[i] pointers); each message occupies one
// cycleRec slab record for its whole lifecycle, chained intrusively
// through its next field first into its arrival instant's bucket of
// the event queue and then into its destination's input FIFO, so
// delivery moves an int32 index and allocates nothing. Per-guest
// fan-in/out counts — formerly flat maps keyed cycle*p+id — are flat int32
// columns held in a sliding window of live cycles (see colsFor):
// submissions commit in nondecreasing parked-clock order, so once the
// committing guest's clock passes a cycle's end that cycle can never
// be counted or queried again and its columns retire to a pool. The
// per-cycle aggregates result() needs — the relation degree and the
// overload flag — are folded in incrementally at submission time.
// Runnable guests sit in per-clock buckets of a ready queue (see
// horizon.Ready), so a scheduling step costs O(1) apart from one sort
// of each bucket that received ids out of order; both queues' rings
// span the spreading rule's reach (see reset), so a hot spot's spread
// arrivals stay in ring buckets. Message records hold no pointers — a
// Body waits in the bodies side table — so the GC never scans the
// record slab. Together these keep a p = 10^6 replay's cost
// proportional to its traffic, not to p times its length, with
// near-zero steady-state allocation on a warm simulator.
type cycleEngine struct {
	lp       logp.Params
	cycleLen int64
	fold     int
	capacity int64 // lp.Capacity(), cached off the per-send path

	// script is non-nil for the coroutine-free form (runScript): guests
	// are advanced by scriptSegment instead of an iter.Pull resume.
	script logp.Script

	procs []cycleProc
	// ready holds the runnable guests keyed by (clock, id), events the
	// in-flight deliveries in (arrival, submission order), both in
	// per-instant bucket rings (see reset for their horizon).
	ready   horizon.Ready
	events  horizon.Events
	recNext func(int32) *int32 // links records into the event FIFOs

	// recs backs every in-flight or buffered message's single record;
	// freed records recycle through the recFree intrusive free list.
	// The records hold no pointers: Bodies sit in the bodies side table
	// (see cycleRec).
	recs    []cycleRec
	recFree int32
	bodies  bodies.Table

	// Windowed per-cycle count columns (replacing the former flat count
	// maps): colLive[colHead:] holds the live window, colLive[colHead]
	// being cycle colBase's bundle; nil slots are cycles with no
	// traffic. Retired bundles are zeroed into colPool for reuse.
	colBase int64
	colHead int
	colLive []*cycleCols
	colPool []*cycleCols

	maxH     []int64 // per cycle: running relation-degree maximum
	overload []bool  // per cycle: some guest fan-in exceeded capacity

	keepPairs bool
	msgs      map[int64][]relation.Pair // cycle -> message slots (executed extension)

	wake []int32 // deliverInstant scratch: guest ids to wake, in id order

	// grouping is lent to stallingExtensionTime so replays with many
	// overloaded cycles regroup into one reused backing.
	grouping relation.Grouping

	guestTime int64
	totalMsgs int64

	procErr error
}

type cycleProc struct {
	id    int
	eng   *cycleEngine
	clock int64
	// nextComm is the earliest instant of the next communication
	// operation: submissions and acquisitions share one per-processor
	// gap stream, as in the logp engine.
	nextComm int64
	// Input buffer: an intrusive FIFO through cycleEngine.recs, in
	// delivery order. bufHead/bufTail are -1 when empty.
	bufHead int32
	bufTail int32
	bufLen  int32
	state   cycleState
	pending cycleReq
	// The program runs as an iter.Pull coroutine, as in the logp
	// engine's fast path: next resumes the program until its next
	// engine call, which stores the request in out, yields, and reads
	// the answer from resp; stop unwinds a still-parked program. A
	// finished coroutine cannot yield its terminal state, so the
	// epilogue records it in final. Exactly one of (engine, program)
	// runs at any time, so the unsynchronized fields are race-free.
	next  func() (token, bool)
	stop  func()
	yield func(token) bool
	out   cycleReq
	resp  cycleRes
	final cycleReq
}

// reinit prepares a slab record for a fresh run.
func (p *cycleProc) reinit(id int, e *cycleEngine) {
	p.id = id
	p.eng = e
	p.clock, p.nextComm = 0, 0
	p.bufHead, p.bufTail, p.bufLen = -1, -1, 0
	p.state = cycleReady
	p.pending = cycleReq{}
	p.next, p.stop, p.yield = nil, nil, nil
	p.out, p.final = cycleReq{}, cycleReq{}
	p.resp = cycleRes{}
}

// cycleRec is one message's slab record: in flight, next chains it
// into its arrival instant's event bucket; once delivered, at holds
// the arrival instant and next chains the record into the
// destination's input FIFO. Freed records chain through next into the
// engine's free list.
//
// The record holds no pointer, so the GC never scans the slab: the
// Message fields are narrowed to int32 ids (logp.Params.Validate
// bounds P) and a Body lives in the engine's bodies.Table, body naming
// it.
type cycleRec struct {
	src, dst, tag, next, body int32
	payload, aux, at          int64
}

// cycleCols is one cycle's fan-in/out count columns. rcvd (per guest)
// always exists — the capacity-spreading rule queries it. sent (per
// guest) exists for the direct simulation; sentX/rcvdX (per host)
// carry the cross-host traffic of a folded replay.
type cycleCols struct {
	rcvd  []int32
	sent  []int32
	sentX []int32
	rcvdX []int32
}

type cycleState uint8

const (
	cycleReady cycleState = iota
	cycleWaitMsg
	cycleDone
)

type cycleOp uint8

const (
	cycleCompute cycleOp = iota
	cycleIdle
	cycleSend
	cycleRecv
	cycleTryRecv
	cycleBuffered
	cycleOpDone
	cycleOpPanic
)

type cycleReq struct {
	op  cycleOp
	n   int64
	msg logp.Message
	err error
}

type cycleRes struct {
	msg logp.Message
	ok  bool
	n   int64
}

var errCycleStopped = errors.New("core: cycle engine stopped")

// token is the zero-size value exchanged over the coroutine switch;
// requests and responses ride in cycleProc fields instead of being
// copied through the iter.Pull plumbing.
type token = struct{}

// cycleProc implements logp.Proc.
var _ logp.Proc = (*cycleProc)(nil)

func (p *cycleProc) ID() int             { return p.id }
func (p *cycleProc) P() int              { return p.eng.lp.P }
func (p *cycleProc) Params() logp.Params { return p.eng.lp }
func (p *cycleProc) Now() int64          { return p.clock }

func (p *cycleProc) call(r cycleReq) cycleRes {
	p.out = r
	if !p.yield(token{}) {
		panic(errCycleStopped)
	}
	return p.resp
}

func (p *cycleProc) Compute(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("core: Compute(%d) with negative cycles", n))
	}
	if n == 0 {
		return
	}
	p.call(cycleReq{op: cycleCompute, n: n})
}

func (p *cycleProc) WaitUntil(t int64) { p.call(cycleReq{op: cycleIdle, n: t}) }

func (p *cycleProc) Send(dst int, tag int32, payload, aux int64) {
	p.SendBody(dst, tag, payload, aux, nil)
}

func (p *cycleProc) SendBody(dst int, tag int32, payload, aux int64, body interface{}) {
	if dst < 0 || dst >= p.eng.lp.P {
		panic(fmt.Sprintf("core: Send to invalid destination %d (P=%d)", dst, p.eng.lp.P))
	}
	if dst == p.id {
		panic("core: Send to self; use local state instead")
	}
	p.call(cycleReq{op: cycleSend, msg: logp.Message{
		Src: p.id, Dst: dst, Tag: tag, Payload: payload, Aux: aux, Body: body,
	}})
}

func (p *cycleProc) Recv() logp.Message {
	return p.call(cycleReq{op: cycleRecv}).msg
}

func (p *cycleProc) TryRecv() (logp.Message, bool) {
	r := p.call(cycleReq{op: cycleTryRecv})
	return r.msg, r.ok
}

func (p *cycleProc) Buffered() int {
	return int(p.call(cycleReq{op: cycleBuffered}).n)
}

// scriptSegment advances a scripted guest to its next engine request,
// mirroring the coroutine form exactly: the cycle engine has no
// guest-side fast path, so every operation crosses except Halt and
// Compute(0) — which logp.Proc.Compute resolves without a call — and
// the segment performs the same validation panics the Proc methods
// would raise, recovered into the same wrapped error the coroutine
// epilogue records. The result fed to Next is rebuilt from the last
// response just as logp.ScriptAsProgram rebuilds it from the Proc
// calls, so both forms replay identically.
func (p *cycleProc) scriptSegment() {
	defer func() {
		if r := recover(); r != nil {
			p.pending = cycleReq{op: cycleOpPanic, err: fmt.Errorf("core: processor %d panicked: %v", p.id, r)}
		}
	}()
	s := p.eng.script
	res := logp.ScriptResult{Msg: p.resp.msg, OK: p.resp.ok, N: p.resp.n, Now: p.clock}
	for {
		op := s.Next(p.id, res)
		switch op.Kind {
		case logp.ScriptHalt:
			p.pending = cycleReq{op: cycleOpDone}
			return
		case logp.ScriptCompute:
			if op.N < 0 {
				panic(fmt.Sprintf("core: Compute(%d) with negative cycles", op.N))
			}
			if op.N == 0 {
				res = logp.ScriptResult{Now: p.clock}
				continue
			}
			p.pending = cycleReq{op: cycleCompute, n: op.N}
			return
		case logp.ScriptWait:
			p.pending = cycleReq{op: cycleIdle, n: op.N}
			return
		case logp.ScriptSend:
			if op.Dst < 0 || op.Dst >= p.eng.lp.P {
				panic(fmt.Sprintf("core: Send to invalid destination %d (P=%d)", op.Dst, p.eng.lp.P))
			}
			if op.Dst == p.id {
				panic("core: Send to self; use local state instead")
			}
			p.pending = cycleReq{op: cycleSend, msg: logp.Message{
				Src: p.id, Dst: op.Dst, Tag: op.Tag, Payload: op.Payload, Aux: op.Aux,
			}}
			return
		case logp.ScriptRecv:
			p.pending = cycleReq{op: cycleRecv}
			return
		case logp.ScriptTryRecv:
			p.pending = cycleReq{op: cycleTryRecv}
			return
		case logp.ScriptBuffered:
			p.pending = cycleReq{op: cycleBuffered}
			return
		default:
			panic(fmt.Sprintf("core: unknown script op kind %d", op.Kind))
		}
	}
}

// sequence adapts prog to the coroutine protocol; see cycleProc.
func (p *cycleProc) sequence(prog logp.Program) iter.Seq[token] {
	return func(yield func(token) bool) {
		p.yield = yield
		defer func() {
			switch r := recover(); {
			case r == nil:
				p.final = cycleReq{op: cycleOpDone}
			case isCycleStopped(r):
				// Unwound by shutdown; the engine no longer reads.
			default:
				p.final = cycleReq{op: cycleOpPanic, err: fmt.Errorf("core: processor %d panicked: %v", p.id, r)}
			}
		}()
		prog(p)
	}
}

func isCycleStopped(r interface{}) bool {
	err, ok := r.(error)
	return ok && errors.Is(err, errCycleStopped)
}

// reset prepares the retained engine for a fresh replay with the given
// shape. Slabs are truncated in place and live count columns are
// flushed back to the pool, or dropped when the (P, fold) shape
// changed, since bundles are sized by it. Nothing is freed, so a warm
// simulator replays with near-zero steady-state allocation.
//
//hot:cold per-Run setup owns all steady-state allocation
func (e *cycleEngine) reset(lp logp.Params, cycleLen int64, fold int, keepPairs bool) {
	sameShape := e.lp.P == lp.P && e.fold == fold
	e.lp = lp
	e.cycleLen = cycleLen
	e.fold = fold
	e.capacity = lp.Capacity()
	e.script = nil
	if len(e.procs) != lp.P {
		e.procs = make([]cycleProc, lp.P)
	}
	// A submission lands at most G past its guest's clock and arrives
	// at the next cycle boundary, so two cycles plus the latency window
	// cover every arrival the spreading rule leaves in place. The rule
	// moves a hot spot's excess arrivals one per G past the boundary (see
	// exec): a guest submits at most ceil(cycleLen/G) times per cycle, so
	// one destination's fan-in in a cycle is at most P*ceil(cycleLen/G),
	// and the last of them lands at most that many gaps past it. Sized
	// to that reach, the ring takes every spread arrival short of its
	// slot cap; only a wider reach spills into the overflow heap.
	if e.recNext == nil {
		e.recNext = func(i int32) *int32 { return &e.recs[i].next }
	}
	span := 2*(cycleLen+lp.L) + int64(lp.P)*ceilDiv(cycleLen, lp.G)*lp.G
	e.events.Reset(span, 1, e.recNext)
	e.ready.Reset(span, lp.P)
	e.recs = e.recs[:0]
	e.recFree = -1
	e.bodies.Reset()
	if !sameShape {
		clear(e.colPool)
		e.colPool = e.colPool[:0]
	}
	for i := e.colHead; i < len(e.colLive); i++ {
		if c := e.colLive[i]; c != nil && sameShape {
			e.clearCols(c)
			e.colPool = append(e.colPool, c)
		}
	}
	clear(e.colLive)
	e.colLive = e.colLive[:0]
	e.colHead = 0
	e.colBase = 0
	e.maxH = e.maxH[:0]
	e.overload = e.overload[:0]
	e.keepPairs = keepPairs
	e.msgs = nil
	if keepPairs {
		e.msgs = make(map[int64][]relation.Pair)
	}
	e.wake = e.wake[:0]
	e.guestTime = 0
	e.totalMsgs = 0
	e.procErr = nil
}

// shutdown unwinds still-parked coroutines and drops per-guest
// closures and requests, and the Bodies of never-acquired messages
// (buffered at a halted guest), so the retained engine pins no program
// state (closures, message bodies) between runs.
//
//hot:cold per-Run epilogue
func (e *cycleEngine) shutdown() {
	for i := range e.procs {
		p := &e.procs[i]
		if p.stop != nil {
			p.stop()
		}
		p.next, p.stop, p.yield = nil, nil, nil
		p.pending, p.out, p.final = cycleReq{}, cycleReq{}, cycleReq{}
		p.resp = cycleRes{}
	}
	e.bodies.Reset()
}

// run starts every coroutine guest and hands off to the commit loop.
//
//hot:cold per-Run startup
func (e *cycleEngine) run(prog logp.Program) error {
	for i := range e.procs {
		p := &e.procs[i]
		p.reinit(i, e)
		p.next, p.stop = iter.Pull(p.sequence(prog))
		e.await(p)
	}
	return e.loop()
}

// runScript starts every scripted guest and hands off to the commit
// loop.
//
//hot:cold per-Run startup
func (e *cycleEngine) runScript(sc logp.Script) error {
	e.script = sc
	for i := range e.procs {
		p := &e.procs[i]
		p.reinit(i, e)
		e.await(p)
	}
	return e.loop()
}

// loop is the commit loop shared by both guest forms. The ready queue
// realizes exactly the order the former O(p) scan picked — the
// runnable guest with the smallest clock, lowest id on ties.
//
//hot:path the Theorem 1 cycle engine's per-event commit loop
func (e *cycleEngine) loop() error {
	for {
		if e.events.Len() > 0 && e.events.MinTime() <= e.ready.MinClock() {
			e.deliverInstant(e.events.MinTime())
			continue
		}
		if e.ready.Len() == 0 {
			allDone := true
			for i := range e.procs {
				if e.procs[i].state != cycleDone {
					allDone = false
					break
				}
			}
			if allDone {
				break
			}
			if e.procErr != nil {
				return e.procErr
			}
			return e.deadlockError()
		}
		clock, id := e.ready.Pop()
		// Every arrival at or before clock is delivered and no later
		// submission can arrive at or below it.
		e.events.Advance(clock)
		e.exec(&e.procs[id])
	}

	for e.events.Len() > 0 {
		e.deliverInstant(e.events.MinTime())
	}
	for i := range e.procs {
		if c := e.procs[i].clock; c > e.guestTime {
			e.guestTime = c
		}
	}
	return e.procErr
}

// deadlockError renders the replay's deadlock diagnostic, off the hot
// path so the commit loop itself stays allocation-free.
//
//hot:cold failure epilogue: the diagnostic rendering may allocate
func (e *cycleEngine) deadlockError() error {
	var blocked []int
	for i := range e.procs {
		if e.procs[i].state == cycleWaitMsg {
			blocked = append(blocked, e.procs[i].id)
		}
	}
	return fmt.Errorf("core: deadlock in Theorem 1 replay: processors %v blocked on Recv", blocked)
}

// await obtains p's next request — resuming the coroutine or running
// the script segment — and, if the guest stays runnable, parks it in
// the ready queue. Every caller has p out of the queue (startup, or just
// popped by exec's committer), so the push cannot duplicate.
func (e *cycleEngine) await(p *cycleProc) {
	if p.next == nil {
		p.scriptSegment()
		switch p.pending.op {
		case cycleOpDone:
			p.state = cycleDone
		case cycleOpPanic:
			p.state = cycleDone
			if e.procErr == nil {
				e.procErr = p.pending.err
			}
		default:
			p.state = cycleReady
			e.ready.Push(p.clock, int32(p.id))
		}
		return
	}
	if _, ok := p.next(); ok {
		p.pending = p.out
		p.state = cycleReady
		e.ready.Push(p.clock, int32(p.id))
		return
	}
	p.state = cycleDone
	if p.final.op == cycleOpPanic && e.procErr == nil {
		e.procErr = p.final.err
	}
}

func (e *cycleEngine) resume(p *cycleProc, r cycleRes) {
	p.resp = r
	e.await(p)
}

// ensureCycle grows the per-cycle aggregate arrays (O(cycles) total,
// the same order as the CycleH slice result() returns).
func (e *cycleEngine) ensureCycle(cycle int64) {
	for int64(len(e.maxH)) <= cycle {
		//lint:ignore hotloop per-cycle aggregate growth: O(cycles) appends per run, not per event
		e.maxH = append(e.maxH, 0)
		//lint:ignore hotloop per-cycle aggregate growth: O(cycles) appends per run, not per event
		e.overload = append(e.overload, false)
	}
}

func (e *cycleEngine) noteH(cycle, c int64) {
	if c > e.maxH[cycle] {
		e.maxH[cycle] = c
	}
}

// takeCols returns a zeroed column bundle, pooled or fresh, sized for
// the current (P, fold) shape.
//
//hot:cold column-bundle constructor: pool misses are bounded by the live-window high-water mark, and the steady state reuses pooled bundles
func (e *cycleEngine) takeCols() *cycleCols {
	if n := len(e.colPool); n > 0 {
		c := e.colPool[n-1]
		e.colPool[n-1] = nil
		e.colPool = e.colPool[:n-1]
		return c
	}
	c := &cycleCols{rcvd: make([]int32, e.lp.P)}
	if e.fold == 1 {
		c.sent = make([]int32, e.lp.P)
	} else {
		hostP := e.lp.P / e.fold
		c.sentX = make([]int32, hostP)
		c.rcvdX = make([]int32, hostP)
	}
	return c
}

func (e *cycleEngine) clearCols(c *cycleCols) {
	clear(c.rcvd)
	clear(c.sent)
	clear(c.sentX)
	clear(c.rcvdX)
}

// colsFor returns cycle's column bundle, extending the live window as
// needed. Callers only ever ask for cycles at or above the retirement
// floor (see retireCols), so cycle >= colBase + colHead always holds.
func (e *cycleEngine) colsFor(cycle int64) *cycleCols {
	idx := int(cycle - e.colBase)
	for idx >= len(e.colLive) {
		//lint:ignore hotloop live-window growth to its high-water span, then reused; retireCols rebases it
		e.colLive = append(e.colLive, nil)
	}
	c := e.colLive[idx]
	if c == nil {
		c = e.takeCols()
		e.colLive[idx] = c
	}
	return c
}

// retireCols returns the columns of every cycle below floor to the
// pool. The floor is the committing guest's parked clock divided by
// the cycle length: commits happen in nondecreasing parked-clock
// order and a submission instant is >= the submitter's clock, so no
// later submission can bump — or query the fan-in of — a cycle that
// ended before the current committer's clock. floor is therefore
// nondecreasing across calls, which keeps colBase monotone.
func (e *cycleEngine) retireCols(floor int64) {
	for e.colHead < len(e.colLive) && e.colBase+int64(e.colHead) < floor {
		if c := e.colLive[e.colHead]; c != nil {
			e.clearCols(c)
			//lint:ignore hotloop pool return: colPool reaches the window high-water capacity and stops growing
			e.colPool = append(e.colPool, c)
			e.colLive[e.colHead] = nil
		}
		e.colHead++
	}
	if e.colHead == len(e.colLive) {
		// Window empty: rebase directly to the floor, so a long quiet
		// stretch (WaitUntil far ahead) costs no window slots.
		if floor > e.colBase {
			e.colBase = floor
		}
		e.colHead = 0
		e.colLive = e.colLive[:0]
	} else if e.colHead > 32 && 2*e.colHead >= len(e.colLive) {
		n := copy(e.colLive, e.colLive[e.colHead:])
		for i := n; i < len(e.colLive); i++ {
			e.colLive[i] = nil
		}
		e.colLive = e.colLive[:n]
		e.colBase += int64(e.colHead)
		e.colHead = 0
	}
}

// countSend folds one submission into the per-cycle statistics: the
// live window's count columns, the cycle's running relation-degree
// maximum, and its overload flag. Counts only grow, so taking the
// maximum of every intermediate value equals the maximum of the final
// per-guest counts the former flat maps used to hold.
func (e *cycleEngine) countSend(cycle int64, msg logp.Message) {
	e.ensureCycle(cycle)
	c := e.colsFor(cycle)
	c.rcvd[msg.Dst]++
	in := int64(c.rcvd[msg.Dst])
	if in > e.capacity {
		e.overload[cycle] = true
	}
	if e.fold == 1 {
		c.sent[msg.Src]++
		e.noteH(cycle, int64(c.sent[msg.Src]))
		e.noteH(cycle, in)
	} else if msg.Src/e.fold != msg.Dst/e.fold {
		// Folded hosts route the cross-host traffic of all their
		// guests; only that traffic contributes to the host relation.
		c.sentX[msg.Src/e.fold]++
		e.noteH(cycle, int64(c.sentX[msg.Src/e.fold]))
		c.rcvdX[msg.Dst/e.fold]++
		e.noteH(cycle, int64(c.rcvdX[msg.Dst/e.fold]))
	}
	if e.keepPairs {
		e.msgs[cycle] = append(e.msgs[cycle], relation.Pair{Src: msg.Src, Dst: msg.Dst})
	}
}

// cycleFanIn returns how many messages this cycle has already directed
// at dst (before the current one). Cycles outside the live window have
// seen no traffic yet.
func (e *cycleEngine) cycleFanIn(cycle int64, dst int) int64 {
	idx := int(cycle - e.colBase)
	if idx >= len(e.colLive) || e.colLive[idx] == nil {
		return 0
	}
	return int64(e.colLive[idx].rcvd[dst])
}

// newRec takes a slab record for msg, reusing the free list first. A
// Body takes a side-table slot.
func (e *cycleEngine) newRec(msg logp.Message) int32 {
	r := cycleRec{
		src: int32(msg.Src), dst: int32(msg.Dst), tag: msg.Tag, next: -1, body: e.bodies.Put(msg.Body),
		payload: msg.Payload, aux: msg.Aux,
	}
	if idx := e.recFree; idx >= 0 {
		e.recFree = e.recs[idx].next
		e.recs[idx] = r
		return idx
	}
	e.recs = append(e.recs, r)
	return int32(len(e.recs) - 1)
}

// appendBuf chains record idx onto p's input FIFO with arrival time at.
func (e *cycleEngine) appendBuf(p *cycleProc, idx int32, at int64) {
	r := &e.recs[idx]
	r.at = at
	r.next = -1
	if p.bufTail >= 0 {
		e.recs[p.bufTail].next = idx
	} else {
		p.bufHead = idx
	}
	p.bufTail = idx
	p.bufLen++
}

// popBufFree unlinks p's buffer head, frees its record and its Body's
// side-table slot, and returns the message.
func (e *cycleEngine) popBufFree(p *cycleProc) logp.Message {
	idx := p.bufHead
	r := &e.recs[idx]
	msg := logp.Message{
		Src: int(r.src), Dst: int(r.dst), Tag: r.tag, Payload: r.payload, Aux: r.aux,
		Body: e.bodies.Take(r.body),
	}
	p.bufHead = r.next
	if p.bufHead < 0 {
		p.bufTail = -1
	}
	p.bufLen--
	r.next = e.recFree
	e.recFree = idx
	return msg
}

func (e *cycleEngine) exec(p *cycleProc) {
	req := p.pending
	switch req.op {
	case cycleCompute:
		p.clock += req.n
		e.resume(p, cycleRes{})
	case cycleIdle:
		if req.n > p.clock {
			p.clock = req.n
		}
		e.resume(p, cycleRes{})
	case cycleBuffered:
		n := int64(0)
		for idx := p.bufHead; idx >= 0; idx = e.recs[idx].next {
			if e.recs[idx].at > p.clock {
				break
			}
			n++
		}
		e.resume(p, cycleRes{n: n})
	case cycleSend:
		// Cycles that ended before this guest's parked clock can never
		// be bumped or fan-in-queried again (see retireCols); return
		// their columns to the pool before touching the window.
		e.retireCols(p.clock / e.cycleLen)
		s := p.clock + e.lp.O
		if s < p.nextComm {
			s = p.nextComm
		}
		p.nextComm = s + e.lp.G
		p.clock = s
		cycle := s / e.cycleLen
		arrival := (cycle + 1) * e.cycleLen
		// Deliveries beyond the destination's capacity are spread at
		// one per G past the boundary, mirroring an admissible
		// stalling-rule execution (FIFO acceptance): for a stall-free
		// cycle nothing changes, while a hot spot's excess messages
		// arrive in later cycles instead of all at once.
		if prior := e.cycleFanIn(cycle, req.msg.Dst); prior >= e.capacity {
			arrival += (prior - e.capacity + 1) * e.lp.G
		}
		e.countSend(cycle, req.msg)
		e.totalMsgs++
		e.events.Push(arrival, 0, e.newRec(req.msg))
		if arrival > e.guestTime {
			e.guestTime = arrival
		}
		e.resume(p, cycleRes{})
	case cycleRecv:
		if p.bufLen > 0 {
			e.completeRecv(p)
		} else {
			p.state = cycleWaitMsg
		}
	case cycleTryRecv:
		if p.bufLen > 0 && e.recs[p.bufHead].at <= p.clock && p.nextComm <= p.clock {
			// The head has arrived and the gap allows it, so the
			// acquisition happens at p.clock, exactly as a Recv would.
			e.completeRecv(p)
		} else {
			p.clock++
			e.resume(p, cycleRes{})
		}
	default:
		panic(fmt.Sprintf("core: unexpected cycle op %d", req.op))
	}
}

func (e *cycleEngine) completeRecv(p *cycleProc) {
	r := p.clock
	if at := e.recs[p.bufHead].at; at > r {
		r = at
	}
	if p.nextComm > r {
		r = p.nextComm
	}
	msg := e.popBufFree(p)
	p.clock = r + e.lp.O
	p.nextComm = r + e.lp.G
	p.state = cycleReady
	e.resume(p, cycleRes{msg: msg, ok: true})
}

func (e *cycleEngine) deliverInstant(t int64) {
	wake := e.wake[:0]
	for e.events.Len() > 0 && e.events.MinTime() == t {
		idx, _ := e.events.Pop()
		dst := e.recs[idx].dst
		p := &e.procs[dst]
		e.appendBuf(p, idx, t)
		if p.state == cycleWaitMsg {
			//lint:ignore hotloop wake-list staging reuses e.wake via [:0]; growth is bounded by the per-instant delivery high-water
			wake = append(wake, int32(dst))
		}
	}
	// Guests wake in id order. The reduced medium delivers whole cycles
	// at their boundary instant, so one instant's wake list is O(p) —
	// a ring at p = 10^6 lands every message on the same boundary —
	// and anything quadratic here (an insertion sort was 97% of the
	// E14.p1m profile) dominates the replay. slices.Sort is in-place
	// and allocation-free, so the cycle engine's 1-alloc-per-Run
	// contract survives; duplicate ids (several messages for one
	// waiting guest) stay adjacent either way, so the sorted sequence
	// is exactly what the insertion sort produced.
	slices.Sort(wake)
	e.wake = wake
	for _, id := range wake {
		p := &e.procs[id]
		if p.state == cycleWaitMsg && p.bufLen > 0 {
			e.completeRecv(p)
		}
	}
}

// result folds the per-cycle aggregates into a Thm1Result.
//
//hot:cold per-Run epilogue
func (e *cycleEngine) result(bp bsp.Params) Thm1Result {
	res := Thm1Result{GuestTime: e.guestTime, MessagesSent: e.totalMsgs}
	if e.guestTime == 0 {
		return res
	}
	capacity := e.lp.Capacity()
	cycles := ceilDiv(e.guestTime, e.cycleLen)
	res.Cycles = cycles
	res.CycleH = make([]int64, cycles)
	lgp := int64(log2Ceil(e.lp.P))
	if lgp < 1 {
		lgp = 1
	}
	work := e.cycleLen * int64(e.fold)
	for k := int64(0); k < cycles; k++ {
		var h int64
		overloaded := false
		if k < int64(len(e.maxH)) {
			h = e.maxH[k]
			overloaded = e.overload[k]
		}
		res.CycleH[k] = h
		res.MaxCycleH = maxI64(res.MaxCycleH, h)
		base := work + bp.G*h + bp.L
		res.BSPTime += base
		if overloaded {
			res.CapacityViolations++
			// Stalling extension (end of Section 3): assign the
			// cycle's messages an acceptance order consistent with
			// the stalling rule. When the bitonic schedule applies,
			// the preprocessing runs as a real BSP program and its
			// measured time is charged; otherwise the closed-form
			// O(log p)-supersteps charge is used.
			if e.keepPairs {
				rel := relation.Relation{P: e.lp.P, Pairs: e.msgs[k]}
				res.ExtensionTime += work + stallingExtensionTime(bp, rel, &e.grouping, capacity, e.lp.G)
			} else {
				res.ExtensionTime += work + extensionFormula(bp, h, capacity, lgp)
			}
		} else {
			res.ExtensionTime += base
		}
	}
	return res
}
