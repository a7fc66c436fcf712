package logp

import "math/bits"

// The proc arena: chunked slab storage for engine-side processor
// records. The first engine versions allocated each proc individually
// (&proc{} in ensureProc), which at p = 10⁶ meant a million separate
// GC-tracked objects per cold Run and a heap the collector had to
// chase pointer by pointer. The arena instead carves records out of
// fixed-size chunks in hand-out order: a cold startup sweep touches
// consecutive records of one chunk (dense cache lines for the id-order
// sweeps), the GC sees a few hundred large objects instead of a
// million small ones, and reset() makes every record reusable again
// without freeing anything — the next Run re-hands the same memory in
// the same order, so a machine kept warm by the cross-Run caches (the
// PR 4/8 keying) reaches zero steady-state proc allocation.
//
// Records are reused, not reconstructed: ensureProc reinits every
// record it hands out, and the slow-path rendezvous channels stored in
// a record deliberately survive reset so repeated WithSlowPath runs
// reuse them too. Pointers into the arena stay valid until the next
// reset — the recycle freelist (Machine.procFree) and the procs table
// both hold *proc into chunks — and must not be retained across Runs,
// which the engine's reset discipline already guarantees.

// procChunkBits caps arena chunks at 1<<procChunkBits records (~1.3 MB
// per chunk at the current proc size): large enough that a
// million-processor startup allocates only a few hundred chunks, small
// enough that sparse runs do not overcommit. Machines with fewer
// processors get smaller chunks (see sizeFor), so a P = 9 machine's
// arena is 16 records, not 4096 zeroed ones.
const procChunkBits = 12

// procArena is the chunked slab. used counts records handed out since
// the last reset; chunks are append-grown once and kept forever, so a
// machine's arena reaches its high-water size and stops allocating.
type procArena struct {
	chunks [][]proc
	used   int
	// narrow is procChunkBits minus this arena's chunk width in bits,
	// set once by sizeFor; the zero value keeps full-width chunks.
	narrow uint8
}

// sizeFor sizes the arena's chunks for a machine of p processors:
// min(1<<procChunkBits, the next power of two >= p) records each. It
// must be called before the first alloc.
func (a *procArena) sizeFor(p int) {
	if p < 1<<procChunkBits {
		a.narrow = uint8(procChunkBits - bits.Len(uint(max(p, 1)-1)))
	}
}

// alloc hands out the next record. Records come back zeroed only on
// first use; reused records carry their previous run's state and the
// caller must reinit them (ensureProc does).
func (a *procArena) alloc() *proc {
	chunkBits := procChunkBits - uint(a.narrow)
	ci := a.used >> chunkBits
	off := a.used & (1<<chunkBits - 1)
	if ci == len(a.chunks) {
		//lint:ignore allocdiscipline chunk growth is amortized to the record high-water mark; a warm machine re-hands existing chunks
		a.chunks = append(a.chunks, make([]proc, 1<<chunkBits))
	}
	a.used++
	return &a.chunks[ci][off]
}

// reset makes every record reusable without freeing the chunks. All
// pointers handed out before the reset are invalidated (the records
// will be re-handed in the same order).
func (a *procArena) reset() { a.used = 0 }

// size reports how many records are currently handed out.
func (a *procArena) size() int { return a.used }
