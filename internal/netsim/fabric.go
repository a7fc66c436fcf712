package netsim

import "math/bits"

// fabric is the packet store and link arbiter that Router and Stepper
// share: one implementation of the per-edge FIFOs, the active-link
// tracking, and the per-step transmit choice, so the batch and the
// incremental simulator cannot drift apart.
//
// Packets live in a retained pool indexed by int32 slot; each directed
// edge's FIFO is a {head, tail, n} header threaded through the pool's
// next field, so a push or pop touches one header and one packet and
// never allocates once the pool reaches its high-water size.
//
// Under single-port arbitration every node keeps a 64-bit mask of its
// non-empty out-links (New rejects nodes of degree > 64). The
// round-robin transmitter of node u at step s is the first non-empty
// link at or after (s+u) mod deg(u), wrapping around: the first set
// bit of the mask at or after that position, else its lowest set bit.
// The start position needs no division: per-step counters hold s mod
// d for every degree d of the graph, and the network precomputes
// u mod deg(u).
type fabric struct {
	net       *Network
	multiPort bool
	// pk is the packet pool; a slot's next field links it to the
	// packet behind it in the same edge FIFO or in the free list.
	pk []packet
	// free is the first released slot (-1 when none); only Stepper
	// releases slots, Router empties the whole pool per run.
	free int32
	// q[e] is directed edge e's FIFO of pool slots.
	q []fifo
	// Multi-port: bitset of edges with non-empty queues.
	activeEdge bitset
	// Single-port: out[u] has bit k set while u's k-th outgoing link
	// holds packets; activeNode marks the nodes with out[u] != 0.
	out        []uint64
	activeNode bitset
	// phase[d] is the number of steps taken so far mod d, kept for
	// every degree d in net.degrees (single-port only).
	phase []int32
	// moves stages one step's link traversals, so no packet moves
	// twice in a step; reused across steps.
	moves []move
	// maxQueue is the peak FIFO depth on any directed link since the
	// last reset.
	maxQueue int
}

// packet is one pool slot.
type packet struct {
	next int32 // next slot in the same edge FIFO or in the free list
	dst  int32 // final destination node
	via  int32 // Valiant intermediate node (-1 when unused or passed)
}

// fifo is the queue header of one directed edge.
type fifo struct{ head, tail, n int32 }

// move is one link traversal of a step: the packet in slot reached
// node.
type move struct{ slot, node int32 }

func newFabric(net *Network) fabric {
	f := fabric{net: net, multiPort: net.G.MultiPort, q: make([]fifo, net.nEdges), free: -1}
	if f.multiPort {
		f.activeEdge = newBitset(net.nEdges)
	} else {
		n := net.G.Nodes()
		f.out = make([]uint64, n)
		f.activeNode = newBitset(n)
		f.phase = make([]int32, net.maxDeg+1)
	}
	return f
}

// restart empties the pool and rewinds the step counters for a new
// batch run; every FIFO must already be empty.
func (f *fabric) restart() {
	f.pk, f.free = f.pk[:0], -1
	clear(f.phase)
	f.maxQueue = 0
}

// newPacket stores a packet in a released slot, else in a new one
// at the end of the pool, and returns its slot.
func (f *fabric) newPacket(dst, via int32) int32 {
	if slot := f.free; slot >= 0 {
		f.free = f.pk[slot].next
		f.pk[slot] = packet{dst: dst, via: via}
		return slot
	}
	f.pk = append(f.pk, packet{dst: dst, via: via})
	return int32(len(f.pk) - 1)
}

// release returns a delivered packet's slot to the free list.
func (f *fabric) release(slot int32) {
	f.pk[slot].next = f.free
	f.free = slot
}

// popHead removes and returns the head slot of directed edge e's FIFO
// and reports whether the FIFO drained; the caller clears the
// active-link tracking.
func (f *fabric) popHead(e int32) (slot int32, drained bool) {
	q := &f.q[e]
	slot = q.head
	q.head = f.pk[slot].next
	q.n--
	return slot, q.n == 0
}

// forward moves the packet in slot, now at node u, onto its next link:
// toward its Valiant intermediate while it has one (dropping it on
// arrival there), then toward its destination. It appends the packet
// to that link's FIFO, maintaining the active-link tracking and the
// peak-depth statistic, and returns true; it returns false, and queues
// nothing, when the packet is home.
func (f *fabric) forward(u, slot int32) bool {
	pk := &f.pk[slot]
	target := pk.dst
	if pk.via >= 0 {
		if pk.via != u {
			target = pk.via
		} else {
			pk.via = -1
		}
	}
	if target == u {
		return false
	}
	net := f.net
	k := net.nextPort[int(target)*len(net.procOf)+int(u)]
	e := net.edgeStart[u] + int32(k)
	q := &f.q[e]
	if q.n == 0 {
		q.head = slot
		if f.multiPort {
			f.activeEdge.set(int(e))
		} else {
			if f.out[u] == 0 {
				f.activeNode.set(int(u))
			}
			f.out[u] |= 1 << k
		}
	} else {
		f.pk[q.tail].next = slot
	}
	q.tail = slot
	q.n++
	if int(q.n) > f.maxQueue {
		f.maxQueue = int(q.n)
	}
	return true
}

// advance performs one synchronous step: every transmitting link pops
// its head packet. The traversals are returned in link order (edge
// index under multi-port, node index under single-port) and must be
// forwarded by the caller before the next advance; the slice is reused.
func (f *fabric) advance() []move {
	net := f.net
	f.moves = f.moves[:0]
	if f.multiPort {
		// Walk the active-edge bitset in index order (matching a
		// full scan); pops may clear bits at the current position,
		// but pushes wait for the caller, so no bit appears mid-walk.
		for w, word := range f.activeEdge {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				e := int32(w<<6 + b)
				slot, drained := f.popHead(e)
				if drained {
					f.activeEdge.clear(int(e))
				}
				//lint:ignore hotloop move staging reuses f.moves via [:0]; growth is bounded by the per-step traversal high-water
				f.moves = append(f.moves, move{slot: slot, node: net.edgeTo[e]})
			}
		}
		return f.moves
	}
	for _, d := range net.degrees {
		if p := f.phase[d] + 1; p < d {
			f.phase[d] = p
		} else {
			f.phase[d] = 0
		}
	}
	for w, word := range f.activeNode {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			u := w<<6 + b
			lo := net.edgeStart[u]
			deg := net.edgeStart[u+1] - lo
			start := f.phase[deg] + net.uMod[u]
			if start >= deg {
				start -= deg
			}
			mask := f.out[u]
			k := bits.TrailingZeros64(mask &^ (1<<uint(start) - 1))
			if k == 64 {
				k = bits.TrailingZeros64(mask)
			}
			e := lo + int32(k)
			slot, drained := f.popHead(e)
			if drained {
				if mask &^= 1 << uint(k); mask == 0 {
					f.activeNode.clear(u)
				}
				f.out[u] = mask
			}
			//lint:ignore hotloop move staging reuses f.moves via [:0]; growth is bounded by the per-step traversal high-water
			f.moves = append(f.moves, move{slot: slot, node: net.edgeTo[e]})
		}
	}
	return f.moves
}

// bitset is a fixed-size set of small integers, used to track the
// directed edges (multi-port) or nodes (single-port) that currently
// hold packets, so a simulation step visits only active links instead
// of scanning every edge of the network.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }
