package netsim

import "fmt"

// Stepper is the incremental interface to the packet network: inject
// packets at the current step, advance one step at a time, and collect
// arrivals. The LogP-on-network co-simulation in internal/netlogp
// drives a Stepper in lockstep with its processor clocks.
//
// A Stepper runs on the same packet fabric as Router (see fabric.go):
// delivered packets return their pool slots to a free list, and a side
// column keeps each slot's caller id, so steady-state stepping
// allocates nothing. It is not safe for concurrent use.
type Stepper struct {
	f fabric
	// ids[slot] is the caller's id of the packet in pool slot slot.
	ids []int64

	step    int64
	pending int
	// MaxQueue is the peak FIFO depth observed on any link.
	MaxQueue int
	// TotalHops counts link traversals.
	TotalHops int64

	arrivals []Arrival
}

// Arrival reports a packet reaching its destination processor.
type Arrival struct {
	ID   int64
	Dst  int // destination processor id
	Step int64
}

// NewStepper returns a stepper positioned at step 0 with an empty
// network.
func (net *Network) NewStepper() *Stepper {
	return &Stepper{f: newFabric(net)}
}

// Step returns the current step counter.
func (s *Stepper) Step() int64 { return s.step }

// Pending reports how many packets are in flight.
func (s *Stepper) Pending() int { return s.pending }

// Inject enqueues a packet from srcProc to dstProc at the current
// step. Packets to self are rejected (they never enter the network),
// as are processor ids outside [0, P).
func (s *Stepper) Inject(id int64, srcProc, dstProc int) {
	p := s.f.net.G.P()
	if srcProc < 0 || srcProc >= p {
		panic(fmt.Sprintf("netsim: Stepper.Inject source processor %d out of range [0, %d)", srcProc, p))
	}
	if dstProc < 0 || dstProc >= p {
		panic(fmt.Sprintf("netsim: Stepper.Inject destination processor %d out of range [0, %d)", dstProc, p))
	}
	if srcProc == dstProc {
		panic("netsim: Stepper.Inject to self")
	}
	slot := s.f.newPacket(int32(s.f.net.G.Processors[dstProc]), -1)
	if int(slot) == len(s.ids) {
		s.ids = append(s.ids, id)
	} else {
		s.ids[slot] = id
	}
	s.f.forward(int32(s.f.net.G.Processors[srcProc]), slot)
	s.pending++
	s.MaxQueue = max(s.MaxQueue, s.f.maxQueue)
}

// Advance moves the network forward one step and returns the packets
// that arrived at their destinations during it. The returned slice is
// reused by the next Advance call; callers must consume (or copy) it
// before advancing again.
func (s *Stepper) Advance() []Arrival {
	s.step++
	s.arrivals = s.arrivals[:0]
	moves := s.f.advance()
	for _, mv := range moves {
		if s.f.forward(mv.node, mv.slot) {
			continue
		}
		s.arrivals = append(s.arrivals, Arrival{
			ID:   s.ids[mv.slot],
			Dst:  int(s.f.net.procOf[mv.node]),
			Step: s.step,
		})
		s.f.release(mv.slot)
		s.pending--
	}
	s.TotalHops += int64(len(moves))
	s.MaxQueue = max(s.MaxQueue, s.f.maxQueue)
	simHops.Add(int64(len(moves)))
	return s.arrivals
}
