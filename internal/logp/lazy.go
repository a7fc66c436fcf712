package logp

import (
	"fmt"
	"iter"
	"math"
)

// Lazy processor lifecycle for the scale mode. Processors that have no
// work before their first message (Script.Active(id) == false, or
// WithPassiveStart for the coroutine form) are never materialized at
// startup: the nil slot in Machine.procs together with a clear
// startedBits bit is the whole template. A template is instantiated
// when its first message is delivered — its local prefix runs then,
// which the passivity contract makes unobservable — or by the
// finalization sweep at termination, so deadlock reports and completion
// checks see exactly the processors the dense engine would. Halted
// scripted processors are recycled back into the struct pool
// (procFree), with the few still-observable facts (final clock, stall
// cycles, buffered depth) retired into dense/side structures, so a
// long run's live footprint follows the active set, not P.

// WithPassiveStart declares processors passive for the coroutine
// Program form: f(id) reporting true marks id as having no work before
// its first message, so the engine defers creating its coroutine until
// a message arrives for it. The program must uphold the same passivity
// contract as Script.Active — the operations before a passive
// processor's first Recv must be Compute or WaitUntil only. Under
// WithSlowPath the option is ignored and every processor starts
// eagerly; the slow path stays the dense oracle.
func WithPassiveStart(f func(id int) bool) Option {
	return func(m *Machine) { m.passiveStart = f }
}

// started reports whether processor id was ever materialized this run.
// procs[id] == nil then distinguishes a template (not started) from a
// recycled halted processor (started).
func (m *Machine) started(id int) bool {
	return m.startedBits[id>>6]&(1<<(uint(id)&63)) != 0
}

// ensureProc materializes processor id and marks it started. Records
// come from the recycle freelist first (a halted scripted processor's
// record, warm in cache), then from the arena, which re-hands the
// previous run's chunk memory before growing (see arena.go); either
// way the caller reinits the record. Nothing here allocates once the
// arena has reached the run's high-water record count.
func (m *Machine) ensureProc(id int) *proc {
	var p *proc
	if n := len(m.procFree); n > 0 {
		p = m.procFree[n-1]
		m.procFree[n-1] = nil
		m.procFree = m.procFree[:n-1]
	} else {
		p = m.arena.alloc()
		p.m = m
	}
	p.id = id
	m.procs[id] = p
	m.startedBits[id>>6] |= 1 << (uint(id) & 63)
	return p
}

// maybeRecycle returns a halted scripted processor's struct to the
// pool. Everything a Result or a later instant can still observe is
// retired first: the final clock into procTimes, stall cycles into the
// run accumulator, and any never-acquired buffered arrivals into
// doneBufLen (their records are freed — after halt only the depth is
// observable, via MaxBufferDepth). Only the scripted engine recycles;
// coroutine-form processors keep their structs, whose stop functions
// the shutdown sweep still owns.
func (m *Machine) maybeRecycle(p *proc) {
	if m.script == nil || p.state != stateDone || m.procs[p.id] != p {
		return
	}
	m.procTimes[p.id] = p.clock
	m.doneStall += p.stallCycles
	if p.bufLen > 0 {
		m.doneBufLen[p.id] = p.bufLen
		for p.bufHead >= 0 {
			m.popBufFree(p)
		}
	}
	m.procs[p.id] = nil
	m.procFree = append(m.procFree, p)
}

// instantiateLazy materializes template id and runs its local prefix,
// which must end in the processor's first Recv (parking it to receive
// the delivery that triggered the instantiation), a halt, or a panic.
// Anything else breaks the passivity contract and fails the run: a
// Send, or even a locally failing poll, would have interacted with the
// rest of the machine had the prefix run at startup, so deferring it
// would no longer be unobservable.
//
// t is the instant of the triggering delivery (MaxInt64 from the
// finalization sweep). It decides how far the dense engine would
// already have taken the processor: a Recv parked at clock < t would
// have executed — on an empty buffer — before this instant, so the
// processor is left waiting for a message; a Recv at clock >= t is
// still pending in commit order, so it goes into the ready queue for
// the commit loop to execute at its proper (clock, id) turn. The
// distinction keeps acquisition events in exactly the dense trace
// order.
func (m *Machine) instantiateLazy(id int, t int64) {
	m.templateCount--
	p := m.ensureProc(id)
	p.reinit(false)
	p.watermark = m.localWatermark()
	p.prefix = true
	if m.script == nil {
		//lint:ignore allocdiscipline one coroutine per lazily instantiated processor; the dense engine pays the same closure at startup
		p.next, p.stop = iter.Pull(p.sequence(m.curProg))
	}
	m.await(p)
	p.prefix = false
	switch p.pending.kind {
	case opRecv:
		if p.clock < t {
			// Mirror exec(opRecv) on an empty buffer: one simulation
			// event, then wait for a message. The buffer is empty by
			// construction — the triggering delivery has not been
			// appended yet.
			m.simEvents++
			p.state = stateWaitMsg
		} else {
			m.pushReady(p)
		}
	case opDone, opPanic:
		// await recorded the outcome (and recycled a scripted proc).
	default:
		if m.procErr == nil {
			m.procErr = fmt.Errorf("logp: processor %d declared passive performed a non-local operation before its first Recv", id)
		}
		p.state = stateDone
		m.doneCount++
		m.maybeRecycle(p)
	}
}

// finalizeTemplates instantiates every remaining template in id order.
// The scheduler calls it when no processor is runnable and no event is
// pending, so each prefix runs exactly as a startup sweep would have;
// afterwards the completion and deadlock checks observe the same
// processor states as the dense engine.
func (m *Machine) finalizeTemplates() {
	for id := 0; id < m.params.P && m.templateCount > 0; id++ {
		if m.procs[id] == nil && !m.started(id) {
			m.instantiateLazy(id, math.MaxInt64)
		}
	}
}
