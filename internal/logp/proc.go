package logp

import "fmt"

// Proc is the interface a LogP program uses to drive its processor.
// Programs are ordinary Go functions of type Program; each runs in its
// own goroutine but the engine interleaves them deterministically, so
// closures may share data structures indexed by processor id without
// additional locking.
//
// Proc is an interface rather than a concrete type so that the
// cross-simulators in internal/core can execute unmodified LogP
// programs on a different substrate (Theorem 1 runs them on a BSP
// machine).
type Proc interface {
	// ID returns this processor's identifier in [0, P()).
	ID() int
	// P returns the number of processors.
	P() int
	// Params returns the machine parameters.
	Params() Params
	// Now returns the processor's local clock.
	Now() int64
	// Compute advances the local clock by n >= 0 units of local work.
	Compute(n int64)
	// WaitUntil idles the processor until its local clock is at
	// least t. Scheduled (oblivious) algorithms such as the paper's
	// binary Combine-and-Broadcast for ceil(L/G) = 1 use it to pin
	// transmissions to prescribed instants.
	WaitUntil(t int64)
	// Send prepares (cost o) and submits a message. The call returns
	// when the medium accepts the message; if the destination is at
	// capacity the processor stalls until acceptance, per the
	// Stalling Rule. Consecutive submission instants are >= G apart.
	Send(dst int, tag int32, payload, aux int64)
	// SendBody is Send with an opaque application payload attached;
	// the cost model is identical (every message is O(1) words).
	SendBody(dst int, tag int32, payload, aux int64, body interface{})
	// Recv blocks until an incoming message can be acquired, then
	// acquires it (cost o). Consecutive acquisition instants are
	// >= G apart.
	Recv() Message
	// TryRecv acquires a buffered message if one has arrived by the
	// local clock and the acquisition gap permits; otherwise it
	// charges one polling cycle and reports false.
	TryRecv() (Message, bool)
	// Buffered reports how many delivered messages are waiting in
	// the input buffer at the local clock.
	Buffered() int
}

// Program is the code executed by every processor of a Machine.
type Program func(p Proc)

type opKind uint8

const (
	opCompute opKind = iota
	opIdle
	opSend
	opRecv
	opTryRecv
	opBuffered
	opDone
	opPanic
)

type request struct {
	kind opKind
	n    int64
	msg  Message
	err  error
}

type response struct {
	msg Message
	ok  bool
	n   int64
	// poison tells a slow-path program goroutine to unwind: the
	// engine is shutting down and will never answer another request.
	poison bool
}

// token is the zero-size value exchanged over the fast path's
// coroutine switch; the actual request and response ride in proc
// fields (see proc.out and proc.resp).
type token = struct{}

type procState uint8

const (
	stateReady procState = iota
	stateWaitAccept
	stateWaitMsg
	stateDone
)

// msgRec is one message's slab record (Machine.recSlab), reused across
// the message's whole lifecycle without copying: while pending, at
// holds the submission instant (the Stalling Rule's FIFO key and stall
// baseline); while its submission or delivery event is queued, next
// chains it into that instant's event bucket; once delivered, at holds
// the arrival instant and next chains the record into the
// destination's input FIFO. Freed records chain through next into the
// machine's free list.
type msgRec struct {
	msg   Message
	at    int64
	msgID int64
	next  int32
}

// proc is the engine-side representation of a processor; it also
// implements Proc for the program goroutine.
type proc struct {
	id int
	m  *Machine

	clock int64 // local time
	// nextComm is the earliest instant at which this processor may
	// perform its next communication operation. Submissions and
	// acquisitions share the single per-processor gap stream of the
	// paper's Section 2 definition: at least G cycles must separate
	// *any* two consecutive communication operations by the same
	// processor, not merely two submissions or two acquisitions.
	nextComm int64

	// Fast-path local view. watermark is the delivery watermark the
	// engine computed when it last resumed this processor: no message
	// can reach the input buffer at any instant strictly below it, so
	// Buffered and failing TryRecv resolve proc-side while clock stays
	// below the watermark. localOps counts operations resolved
	// proc-side since the last engine crossing; the count is flushed
	// into the machine's simEvents at the next yield (Send, Recv,
	// successful TryRecv, a watermark miss, or termination).
	watermark int64
	localOps  int64

	// Input buffer: an intrusive FIFO through Machine.recSlab, in
	// delivery order. bufHead/bufTail are -1 when empty.
	bufHead int32
	bufTail int32
	bufLen  int

	state   procState
	pending request
	// final carries the coroutine's terminal request (opDone or
	// opPanic): a finished coroutine cannot yield, so its epilogue
	// records the outcome here for the engine to read.
	final request

	sent, recvd int64
	stallCycles int64
	stallEvents int64

	// Fast path: the program runs as a coroutine. yield parks the
	// program until the engine answers in resp; next resumes the
	// program until its next request; stop unwinds it. The request
	// itself travels through the out field rather than the yield
	// value — yielding a zero-size token keeps the ~90-byte request
	// struct from being copied through the iter.Pull plumbing twice
	// per crossing. Exactly one of (engine, program) runs at any time
	// and the coroutine switch orders their memory accesses, so these
	// unsynchronized fields are race-free.
	next  func() (token, bool)
	stop  func()
	yield func(token) bool
	out   request
	resp  response
	fast  bool

	// prefix is set while a lazily instantiated passive processor runs
	// its pre-Recv prefix (see lazy.go): locally resolving polls are
	// rejected there, because deferring them past startup would not
	// commute with the rest of the machine.
	prefix bool

	// Slow path (WithSlowPath): the original per-op channel
	// rendezvous, kept alive as a differential-testing oracle.
	req chan request
	res chan response
}

var _ Proc = (*proc)(nil)

func (p *proc) ID() int        { return p.id }
func (p *proc) P() int         { return p.m.params.P }
func (p *proc) Params() Params { return p.m.params }
func (p *proc) Now() int64     { return p.clock }

// call hands r to the engine and blocks for the answer. On the fast
// path that is one coroutine switch; on the slow path, plain channel
// operations suffice — no select on a shutdown channel — because the
// engine is always parked awaiting p while p's program code runs, so
// the request send cannot block past shutdown, and a response always
// arrives: either a real one or the shutdown sweep's poison.
func (p *proc) call(r request) response {
	if p.fast {
		p.out = r
		if !p.yield(token{}) {
			panic(errStopped)
		}
		return p.resp
	}
	p.req <- r
	v := <-p.res
	if v.poison {
		panic(errStopped)
	}
	return v
}

// Compute is the per-event local-work operation of the fast path.
//
//hot:path program-side fast-path operation
func (p *proc) Compute(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("logp: Compute(%d) with negative cycles", n))
	}
	if n == 0 {
		return
	}
	if p.fast {
		// Local work touches only this processor's clock; it commutes
		// with every other processor's operations, so it never needs
		// the engine.
		p.clock += n
		p.localOps++
		return
	}
	p.call(request{kind: opCompute, n: n})
}

// WaitUntil advances the local clock to t.
//
//hot:path program-side fast-path operation
func (p *proc) WaitUntil(t int64) {
	if p.fast {
		if t > p.clock {
			p.clock = t
		}
		p.localOps++
		return
	}
	p.call(request{kind: opIdle, n: t})
}

// Send submits a message for delivery to dst.
//
//hot:path program-side fast-path operation
func (p *proc) Send(dst int, tag int32, payload, aux int64) {
	p.SendBody(dst, tag, payload, aux, nil)
}

// SendBody is Send carrying an opaque body reference.
//
//hot:path program-side fast-path operation
func (p *proc) SendBody(dst int, tag int32, payload, aux int64, body interface{}) {
	if dst < 0 || dst >= p.m.params.P {
		panic(fmt.Sprintf("logp: Send to invalid destination %d (P=%d)", dst, p.m.params.P))
	}
	if dst == p.id {
		panic("logp: Send to self; use local state instead")
	}
	p.call(request{kind: opSend, msg: Message{
		Src: p.id, Dst: dst, Tag: tag, Payload: payload, Aux: aux, Body: body,
	}})
}

// Recv blocks until a buffered message can be acquired.
//
//hot:path program-side fast-path operation
func (p *proc) Recv() Message {
	return p.call(request{kind: opRecv}).msg
}

// TryRecv polls the input buffer for one cycle.
//
//hot:path program-side fast-path operation
func (p *proc) TryRecv() (Message, bool) {
	if p.fast {
		if p.bufLen > 0 {
			// The buffer only grows while the program runs ahead, and
			// arrivals keep at <= clock (engine invariant), so a
			// locally visible head decides the poll: success must
			// cross into the engine (it mutates the buffer and emits
			// the acquisition), but a gap violation fails locally no
			// matter what else arrives.
			if p.nextComm > p.clock {
				p.failIfPrefix("TryRecv")
				p.clock++ // one polling cycle
				p.localOps++
				return Message{}, false
			}
		} else if p.clock < p.watermark {
			// Nothing buffered and nothing can arrive below the
			// watermark: the poll fails without consulting the engine.
			p.failIfPrefix("TryRecv")
			p.clock++
			p.localOps++
			return Message{}, false
		}
	}
	r := p.call(request{kind: opTryRecv})
	return r.msg, r.ok
}

// Buffered reports how many arrivals are acquirable right now.
//
//hot:path program-side fast-path operation
func (p *proc) Buffered() int {
	if p.fast && p.clock < p.watermark {
		// Every arrival at or before clock is already in the local
		// view (none can land below the watermark), and buffered
		// arrivals never exceed the owner's clock, so the list length
		// is the answer.
		p.failIfPrefix("Buffered")
		p.localOps++
		return p.bufLen
	}
	return int(p.call(request{kind: opBuffered}).n)
}

// reinit prepares the pooled proc struct for a fresh Run.
func (p *proc) reinit(slow bool) {
	p.clock = 0
	p.nextComm = 0
	p.watermark = 0
	p.localOps = 0
	p.bufHead, p.bufTail, p.bufLen = -1, -1, 0
	p.state = stateReady
	p.pending = request{}
	p.final = request{}
	p.sent, p.recvd = 0, 0
	p.stallCycles, p.stallEvents = 0, 0
	p.next, p.stop, p.yield = nil, nil, nil
	p.resp = response{}
	p.fast = !slow
	p.prefix = false
}
