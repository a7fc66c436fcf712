// Package netsim routes h-relations over the point-to-point networks
// of internal/topology with a synchronous store-and-forward packet
// simulator, to measure the bandwidth and latency parameters a machine
// built on each topology can actually attain (Section 5 of the paper).
//
// Model: time advances in unit steps; each directed link transmits at
// most one packet per step out of a FIFO queue; packets follow
// precomputed shortest-path next hops (optionally through a random
// Valiant intermediate to smooth adversarial patterns). Under the
// single-port discipline a node may transmit on only one of its links
// per step (round-robin over non-empty queues), which is what
// separates the two hypercube rows of Table 1.
//
// The hot loop is index-routed and allocation-free: Network.New
// precomputes the outgoing directed-edge index of every (node,
// destination) pair, so forwarding a packet is one table lookup and
// one push onto an intrusive FIFO threaded through a pooled packet
// store. Router (batch) and Stepper (incremental) share that store
// and its arbiter (fabric.go): a step visits only the links that hold
// packets, tracked by a bitset of active edges under multi-port, or
// by a per-node mask of non-empty out-links under single-port, where
// the round-robin pick is one bit scan and no division. Both own
// their scratch, so repeated runs allocate nothing once the pool
// reaches its high-water size.
package netsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// simHops counts every link traversal committed by any Router or
// Stepper in the process, cheaply (one atomic add per run or step, not
// per hop). The benchmark harness samples it to report hops/sec.
var simHops atomic.Int64

// SimHopCount returns the process-wide number of link traversals
// simulated so far, including by machines built deep inside the
// cross-simulators.
func SimHopCount() int64 { return simHops.Load() }

// Network wraps a topology with routing tables.
type Network struct {
	G *topology.Graph
	// nextPort[d*n + u] is the port (index into G.Adj[u]) of u's
	// outgoing link toward node d along a shortest path, noPort when
	// u == d: the O(1) routing table the hot loop uses instead of
	// scanning G.Adj[u]. One byte per entry (New caps degrees at 64)
	// keeps the n² table cache-resident at Table 1 sizes;
	// destination-major layout keeps the per-destination BFS fill
	// cache-local.
	nextPort []uint8
	// edgeStart[u] is the directed-edge index of u's port 0; u's
	// links are the consecutive edges [edgeStart[u], edgeStart[u+1]).
	edgeStart []int32
	// edgeTo[e] is the head node of directed edge e.
	edgeTo []int32
	// procOf[node] is the processor id hosted at node, -1 for
	// switches.
	procOf []int32
	// uMod[u] is u mod deg(u) (0 for an isolated node), and degrees
	// lists every distinct node degree, at most maxDeg: the
	// single-port arbiter's division-free round-robin start.
	uMod    []int32
	degrees []int32
	maxDeg  int
	nEdges  int
	diam    int
}

// maxDegree is the largest node degree New accepts: ports fit a byte
// and the single-port arbiter keeps a node's non-empty out-links in
// one uint64.
const maxDegree = 64

// noPort marks nextPort's u == d entries.
const noPort = 0xff

// New builds routing tables for g (BFS from every node). It panics
// if a node of g has more than 64 links.
func New(g *topology.Graph) *Network {
	n := g.Nodes()
	net := &Network{
		G:         g,
		nextPort:  make([]uint8, n*n),
		edgeStart: make([]int32, n+1),
		procOf:    make([]int32, n),
		uMod:      make([]int32, n),
	}
	var seenDeg [maxDegree + 1]bool
	for u, a := range g.Adj {
		d := len(a)
		if d > maxDegree {
			panic(fmt.Sprintf("netsim: %s node %d has degree %d; the packet simulator supports at most %d links per node", g.Name, u, d, maxDegree))
		}
		net.edgeStart[u] = int32(net.nEdges)
		for _, v := range a {
			net.edgeTo = append(net.edgeTo, int32(v))
		}
		net.nEdges += d
		if d > 0 {
			net.uMod[u] = int32(u % d)
		}
		if !seenDeg[d] {
			seenDeg[d] = true
			net.degrees = append(net.degrees, int32(d))
		}
		net.maxDeg = max(net.maxDeg, d)
	}
	net.edgeStart[n] = int32(net.nEdges)
	// revPort[e] is the port of e's head node on the link back to e's
	// tail (the graph is undirected, so every u->v link has a v->u
	// twin).
	revPort := make([]uint8, net.nEdges)
	for u := 0; u < n; u++ {
		for k, v := range g.Adj[u] {
			e := int(net.edgeStart[u]) + k
			found := false
			for k2, w := range g.Adj[v] {
				if w == u {
					revPort[e], found = uint8(k2), true
					break
				}
			}
			if !found {
				panic(fmt.Sprintf("netsim: %s asymmetric edge %d-%d (bug)", g.Name, u, v))
			}
		}
	}
	// BFS from each destination over the undirected graph; the next
	// hop toward d from a newly discovered node v is its BFS parent
	// u, reached over the reverse of the discovering edge — recorded
	// directly as the port the hot loop routes by. The deepest BFS
	// level over all destinations is the diameter, recorded as a free
	// byproduct.
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for d := 0; d < n; d++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue = append(queue[:0], int32(d))
		seen := 1
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for k, v := range g.Adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					if int(dist[v]) > net.diam {
						net.diam = int(dist[v])
					}
					// From v, the next hop toward d is u.
					net.nextPort[d*n+v] = revPort[int(net.edgeStart[u])+k]
					queue = append(queue, int32(v))
					seen++
				}
			}
		}
		net.nextPort[d*n+d] = noPort
		if seen != n {
			panic(fmt.Sprintf("netsim: %s disconnected (%d of %d nodes reachable from %d)", g.Name, seen, n, d))
		}
	}
	for i := range net.procOf {
		net.procOf[i] = -1
	}
	for i, node := range g.Processors {
		net.procOf[node] = int32(i)
	}
	return net
}

// NextHop returns the neighbor of u on a shortest path to d (u itself
// when u == d).
func (net *Network) NextHop(u, d int) int {
	k := net.nextPort[d*net.G.Nodes()+u]
	if k == noPort {
		return u
	}
	return net.G.Adj[u][k]
}

// Diameter returns the graph diameter, computed as a byproduct of the
// routing-table BFS (no extra all-pairs pass, unlike G.Diameter()).
func (net *Network) Diameter() int { return net.diam }

// RouteOptions configures a routing run.
type RouteOptions struct {
	// Valiant routes each packet through a uniformly random
	// intermediate node first (two-phase randomized routing),
	// trading a factor ~2 in distance for smoothed congestion.
	Valiant bool
	// Seed drives the Valiant intermediate choices.
	Seed uint64
	// MaxSteps aborts a run that exceeds this bound (0 selects a
	// generous default); exceeding it panics, signalling a bug.
	MaxSteps int
}

// RouteResult reports one routing run.
type RouteResult struct {
	// Steps is the number of synchronous steps until the last packet
	// was delivered.
	Steps int
	// Packets is the number of packets routed.
	Packets int
	// TotalHops sums link traversals over all packets.
	TotalHops int64
	// MaxQueue is the peak FIFO depth on any directed link.
	MaxQueue int
}

// Router runs batch routings: it owns a packet fabric (pooled packets,
// per-edge FIFOs, active-link tracking; see fabric.go) and the
// MeasureGL trial scratch, so repeated Route calls on the same Network
// reuse memory and reach zero steady-state allocations. A Router is
// not safe for concurrent use; build one per goroutine (they share
// the Network's immutable tables). After a MaxSteps panic the Router
// holds stranded packets and must be discarded.
type Router struct {
	f fabric
	// rng drives the Valiant intermediate choices; reseeded per run
	// so repeated Route calls allocate nothing.
	rng stats.RNG
	// trialRNG and perms are a MeasureGL trial's relation draw: the
	// trial's generator and its h permutations, back to back.
	trialRNG stats.RNG
	perms    []int32
	// pending counts the injected packets not yet home.
	pending int
}

// NewRouter returns an empty Router over net.
func (net *Network) NewRouter() *Router {
	return &Router{f: newFabric(net)}
}

// Route delivers every message of rel and returns the measured cost.
// It is shorthand for NewRouter().Route; hot callers should hold a
// Router and reuse it.
func (net *Network) Route(rel relation.Relation, opts RouteOptions) RouteResult {
	return net.NewRouter().Route(rel, opts)
}

// Route delivers every message of rel and returns the measured cost.
func (r *Router) Route(rel relation.Relation, opts RouteOptions) RouteResult {
	if rel.P != r.f.net.G.P() {
		panic(fmt.Sprintf("netsim: relation has %d processors, network %d", rel.P, r.f.net.G.P()))
	}
	r.start(opts)
	for _, pr := range rel.Pairs {
		r.inject(pr.Src, pr.Dst, opts.Valiant)
	}
	return r.run(opts.MaxSteps)
}

// start empties the fabric and seeds the Valiant choices of a run.
func (r *Router) start(opts RouteOptions) {
	r.f.restart()
	r.rng.Reseed(opts.Seed)
	r.pending = 0
}

// inject adds one message from processor src to processor dst, drawing
// its Valiant intermediate when asked, in the order Route draws them.
func (r *Router) inject(src, dst int, valiant bool) {
	procs := r.f.net.G.Processors
	via := int32(-1)
	if valiant {
		via = int32(procs[r.rng.Intn(len(procs))])
	}
	if r.f.forward(int32(procs[src]), r.f.newPacket(int32(procs[dst]), via)) {
		r.pending++
	}
}

// run steps the fabric until every injected packet is home.
//
//hot:path the packet network's per-step routing loop
func (r *Router) run(maxSteps int) RouteResult {
	f := &r.f
	packets := len(f.pk)
	if maxSteps == 0 {
		maxSteps = 10000 + 200*r.f.net.G.Nodes() + 40*packets
	}
	res := RouteResult{Packets: packets}
	remaining := r.pending
	for step := 1; remaining > 0; step++ {
		if step > maxSteps {
			panic(fmt.Sprintf("netsim: %s routing exceeded %d steps with %d packets left (bug or pathological congestion)", r.f.net.G.Name, maxSteps, remaining))
		}
		moves := f.advance()
		res.TotalHops += int64(len(moves))
		for _, mv := range moves {
			if !f.forward(mv.node, mv.slot) {
				remaining--
				res.Steps = step
			}
		}
	}
	res.MaxQueue = f.maxQueue
	simHops.Add(res.TotalHops)
	return res
}

// trial routes one MeasureGL (h, trial) run and returns its steps. It
// draws relation.RandomRegular(rng, p, h)'s h permutations straight
// into the Router's buffer, then the route seed, from the same
// generator stream as materializing the relation would, and routes
// the pairs in the relation's order.
func (r *Router) trial(seed uint64, h int, valiant bool) int {
	p := r.f.net.G.P()
	rng := &r.trialRNG
	rng.Reseed(seed)
	if cap(r.perms) < p*h {
		r.perms = make([]int32, p*h)
	}
	perms := r.perms[:p*h]
	for k := 0; k < h; k++ {
		rng.Perm32Into(perms[k*p:(k+1)*p], p)
	}
	opts := RouteOptions{Valiant: valiant, Seed: rng.Uint64()}
	r.start(opts)
	for k := 0; k < h; k++ {
		for i, d := range perms[k*p : (k+1)*p] {
			r.inject(i, int(d), valiant)
		}
	}
	return r.run(0).Steps
}

// Measurement is the empirically fitted cost model of a topology:
// routing a random h-relation takes about G*h + L steps.
type Measurement struct {
	Topology string
	P        int
	// Fit of mean routing steps against h.
	G, L float64
	R2   float64
	// PermTime is the mean measured time to route one random regular
	// relation at the smallest h in the measured grid — with h = 1 in
	// the grid (the usual case) that is the time of one random
	// permutation, an empirical latency/diameter proxy.
	PermTime float64
	// Points holds (h, steps) averages used for the fit.
	Points [][2]float64
}

// trialSeed derives the RNG seed of one (h, trial) measurement run
// from the base seed: golden-ratio (Weyl) increments per coordinate,
// passed through the SplitMix64 finalizer so neighboring runs land in
// uncorrelated streams. Sequential and parallel MeasureGL runs use
// the same derivation, which is what makes their outputs
// bit-identical; deriving from (h, trial) rather than the job index
// also makes each h's trials independent of the grid ordering.
func trialSeed(seed uint64, h, trial int) uint64 {
	x := seed + uint64(h)*0x9e3779b97f4a7c15 + (uint64(trial)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MeasureGL routes random regular h-relations for each h in hs
// (averaging over trials) and fits steps = G*h + L. The (h, trial)
// runs are independent — each derives its RNG stream up front via
// trialSeed — so they fan out across GOMAXPROCS workers; the result
// is bit-identical to a sequential run regardless of worker count or
// scheduling. Callers holding a Network should use the method form to
// avoid rebuilding the routing tables.
func MeasureGL(g *topology.Graph, hs []int, trials int, seed uint64, valiant bool) Measurement {
	return New(g).MeasureGL(hs, trials, seed, valiant)
}

// MeasureGL is the method form over prebuilt routing tables.
func (net *Network) MeasureGL(hs []int, trials int, seed uint64, valiant bool) Measurement {
	return net.measureGL(hs, trials, seed, valiant, runtime.GOMAXPROCS(0))
}

// measureGL is MeasureGL with an explicit worker count (tests pin it
// to 1 to assert parallel/sequential equivalence).
func (net *Network) measureGL(hs []int, trials int, seed uint64, valiant bool, workers int) Measurement {
	if trials < 1 {
		panic(fmt.Sprintf("netsim: MeasureGL needs trials >= 1, got %d", trials))
	}
	g := net.G
	steps := make([]float64, len(hs)*trials)
	runJob := func(rt *Router, j int) {
		h := hs[j/trials]
		steps[j] = float64(rt.trial(trialSeed(seed, h, j%trials), h, valiant))
	}
	if workers > len(steps) {
		workers = len(steps)
	}
	if workers <= 1 {
		rt := net.NewRouter()
		for j := range steps {
			runJob(rt, j)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt := net.NewRouter()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(steps) {
						return
					}
					runJob(rt, j)
				}
			}()
		}
		wg.Wait()
	}

	m := Measurement{Topology: g.Name, P: g.P()}
	xs := make([]float64, 0, len(hs))
	ys := make([]float64, 0, len(hs))
	minH := 0
	for i, h := range hs {
		var sum float64
		for t := 0; t < trials; t++ {
			sum += steps[i*trials+t]
		}
		mean := sum / float64(trials)
		xs = append(xs, float64(h))
		ys = append(ys, mean)
		m.Points = append(m.Points, [2]float64{float64(h), mean})
		if minH == 0 || h < minH {
			minH = h
			m.PermTime = mean
		}
	}
	// A single-point grid cannot support a line fit; report the
	// PermTime probe alone and leave G/L/R2 zero.
	if len(xs) >= 2 {
		fit := stats.FitLine(xs, ys)
		m.G, m.L, m.R2 = fit.Slope, fit.Intercept, fit.R2
	}
	return m
}

// LogPParams derives best attainable stall-free LogP parameters
// (G*, L*) from a topology measurement, following Section 5: the LogP
// definition requires any ceil(L/G)-relation to route within L, and
// with the fitted cost T(h) = gamma*h + delta that constraint is
// L >= ceil(L/G)*gamma + delta. Choosing G* = 2*gamma leaves half of
// L for the remaining terms, and L* = 3*(gamma + delta) adds headroom
// for worst-case deviations above the mean-based fit (the definition
// is a worst-case guarantee): T(L*/G*) <= 1.5*(gamma+delta) + delta
// <= L*. This realizes the paper's G* = Theta(gamma(p)),
// L* = Theta(gamma(p) + delta(p)).
func (m Measurement) LogPParams() (gStar, lStar float64) {
	gamma := m.G
	if gamma < 1 {
		gamma = 1
	}
	delta := m.L
	if delta < 1 {
		delta = 1
	}
	gStar = 2 * gamma
	lStar = 3 * (gamma + delta)
	if lStar < gStar {
		lStar = gStar
	}
	return gStar, lStar
}
