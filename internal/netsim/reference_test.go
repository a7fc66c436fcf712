package netsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// refNet is the packet network written as literally as the model
// reads, as an oracle for the packet fabric: its own BFS routing
// tables indexed [destination][node], one slice FIFO per (node, port),
// a scan of every link of every node each step, and the single-port
// round-robin start taken with a modulo. It shares no code with
// fabric.go or with New's tables.
type refNet struct {
	g *topology.Graph
	// port[d][v] is the index into g.Adj[v] of v's link toward d.
	port [][]int
	// queues[u][k] is the FIFO of u's k-th link.
	queues [][][]refPacket
	step   int
	res    RouteResult
}

type refPacket struct {
	id      int64
	dst     int // destination node
	dstProc int
	via     int // Valiant intermediate node, -1 when none
}

func newRefNet(g *topology.Graph) *refNet {
	n := g.Nodes()
	r := &refNet{g: g, port: make([][]int, n), queues: make([][][]refPacket, n)}
	for d := 0; d < n; d++ {
		// Breadth-first from d in adjacency order: each node's link
		// toward d leads to the node that reached it first.
		r.port[d] = make([]int, n)
		seen := make([]bool, n)
		seen[d] = true
		for queue := []int{d}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, v := range g.Adj[u] {
				if !seen[v] {
					seen[v] = true
					r.port[d][v] = slices.Index(g.Adj[v], u)
					queue = append(queue, v)
				}
			}
		}
	}
	for u := range r.queues {
		r.queues[u] = make([][]refPacket, len(g.Adj[u]))
	}
	return r
}

// send queues pk, now at node u, on its next link and reports true,
// or reports false when pk is home.
func (r *refNet) send(u int, pk refPacket) bool {
	if pk.via == u {
		pk.via = -1
	}
	target := pk.dst
	if pk.via >= 0 {
		target = pk.via
	}
	if target == u {
		return false
	}
	k := r.port[target][u]
	r.queues[u][k] = append(r.queues[u][k], pk)
	r.res.MaxQueue = max(r.res.MaxQueue, len(r.queues[u][k]))
	return true
}

// advance runs one step and returns the packets that arrived home.
func (r *refNet) advance() []refPacket {
	r.step++
	type hop struct {
		node int
		pk   refPacket
	}
	var hops []hop
	for u, links := range r.queues {
		deg := len(links)
		for i := 0; i < deg; i++ {
			k := i
			if !r.g.MultiPort {
				k = (r.step + u + i) % deg
			}
			if len(links[k]) == 0 {
				continue
			}
			hops = append(hops, hop{node: r.g.Adj[u][k], pk: links[k][0]})
			links[k] = links[k][1:]
			if !r.g.MultiPort {
				break
			}
		}
	}
	var home []refPacket
	for _, h := range hops {
		r.res.TotalHops++
		if !r.send(h.node, h.pk) {
			home = append(home, h.pk)
			r.res.Steps = r.step
		}
	}
	return home
}

// refRoute is Route on the reference network.
func refRoute(g *topology.Graph, pairs []relation.Pair, opts RouteOptions) RouteResult {
	r := newRefNet(g)
	rng := stats.NewRNG(opts.Seed)
	inFlight := 0
	for _, pr := range pairs {
		pk := refPacket{dst: g.Processors[pr.Dst], dstProc: pr.Dst, via: -1}
		if opts.Valiant {
			pk.via = g.Processors[rng.Intn(g.P())]
		}
		if r.send(g.Processors[pr.Src], pk) {
			inFlight++
		}
	}
	for inFlight > 0 {
		if r.step > 100000 {
			panic("reference network did not drain")
		}
		inFlight -= len(r.advance())
	}
	r.res.Packets = len(pairs)
	return r.res
}

// refGraph returns the i-th small fuzz topology, with its port
// discipline flipped when flip is set (every family then runs under
// both).
func refGraph(i int, flip bool) *topology.Graph {
	graphs := []func() *topology.Graph{
		func() *topology.Graph { return topology.Array(3, 2, false) },
		func() *topology.Graph { return topology.Array(4, 2, true) },
		func() *topology.Graph { return topology.Array(3, 3, false) },
		func() *topology.Graph { return topology.Hypercube(8, true) },
		func() *topology.Graph { return topology.Hypercube(16, false) },
		func() *topology.Graph { return topology.Butterfly(3) },
		func() *topology.Graph { return topology.CCC(3) },
		func() *topology.Graph { return topology.ShuffleExchange(3) },
		func() *topology.Graph { return topology.MeshOfTrees(4) },
	}
	g := graphs[i%len(graphs)]()
	if flip {
		g.MultiPort = !g.MultiPort
	}
	return g
}

// refPairs draws a random relation: a random regular h-relation, or
// arbitrary pairs (self pairs included) when load is odd.
func refPairs(rng *stats.RNG, p int, load uint8) []relation.Pair {
	if load%2 == 0 {
		return relation.RandomRegular(rng, p, 1+int(load/2)%4).Pairs
	}
	pairs := make([]relation.Pair, int(load)%(3*p+1))
	for i := range pairs {
		pairs[i] = relation.Pair{Src: rng.Intn(p), Dst: rng.Intn(p)}
	}
	return pairs
}

// FuzzRouteReference checks Router and Stepper against the reference
// network: the same RouteResult for two successive relations on one
// held Router, and, without Valiant routing, the same arrivals (id,
// destination, step, in order) from a Stepper whose packets enter over
// the first few steps.
func FuzzRouteReference(f *testing.F) {
	for i := 0; i < 9; i++ {
		f.Add(uint8(i), uint8(2*i), uint64(i+1), i%2 == 0, false)
		f.Add(uint8(i), uint8(2*i+7), uint64(i+100), i%2 == 1, true)
	}
	f.Fuzz(func(t *testing.T, graph, load uint8, seed uint64, valiant, flip bool) {
		g := refGraph(int(graph), flip)
		net := New(g)
		rng := stats.NewRNG(seed)
		rt := net.NewRouter()
		for run := 0; run < 2; run++ {
			pairs := refPairs(rng, g.P(), load+uint8(run))
			opts := RouteOptions{Valiant: valiant, Seed: rng.Uint64()}
			got := rt.Route(relation.Relation{P: g.P(), Pairs: pairs}, opts)
			if want := refRoute(g, pairs, opts); got != want {
				t.Fatalf("%s multiPort=%v run %d, %d pairs, valiant=%v: Route %+v, reference %+v",
					g.Name, g.MultiPort, run, len(pairs), valiant, got, want)
			}
		}
		if valiant {
			return
		}
		checkStepperAgainstReference(t, net, refPairs(rng, g.P(), load), rng)
	})
}

// checkStepperAgainstReference injects the self-free pairs over the
// first steps (each at a random step < 4) and compares every Advance's
// arrivals and the final counters with the reference network's.
func checkStepperAgainstReference(t *testing.T, net *Network, pairs []relation.Pair, rng *stats.RNG) {
	g := net.G
	at := make([]int, len(pairs))
	for i := range at {
		at[i] = rng.Intn(4)
	}
	st := net.NewStepper()
	ref := newRefNet(g)
	inFlight := 0
	for step := 0; ; step++ {
		for i, pr := range pairs {
			if at[i] != step || pr.Src == pr.Dst {
				continue
			}
			st.Inject(int64(i), pr.Src, pr.Dst)
			ref.send(g.Processors[pr.Src], refPacket{id: int64(i), dst: g.Processors[pr.Dst], dstProc: pr.Dst, via: -1})
			inFlight++
		}
		if step >= 4 && inFlight == 0 {
			break
		}
		if step > 100000 {
			t.Fatalf("%s: %d packets still in flight after %d steps", g.Name, inFlight, step)
		}
		var got, want strings.Builder
		for _, a := range st.Advance() {
			fmt.Fprintf(&got, "%d->%d@%d ", a.ID, a.Dst, a.Step)
		}
		arrived := ref.advance()
		for _, pk := range arrived {
			fmt.Fprintf(&want, "%d->%d@%d ", pk.id, pk.dstProc, ref.step)
		}
		if got.String() != want.String() {
			t.Fatalf("%s multiPort=%v step %d: Stepper arrivals [%s], reference [%s]", g.Name, g.MultiPort, st.Step(), got.String(), want.String())
		}
		inFlight -= len(arrived)
		if st.Pending() != inFlight {
			t.Fatalf("%s step %d: Stepper has %d pending, reference %d", g.Name, st.Step(), st.Pending(), inFlight)
		}
	}
	if st.TotalHops != ref.res.TotalHops || st.MaxQueue != ref.res.MaxQueue {
		t.Fatalf("%s multiPort=%v: Stepper hops %d, max queue %d; reference %d, %d",
			g.Name, g.MultiPort, st.TotalHops, st.MaxQueue, ref.res.TotalHops, ref.res.MaxQueue)
	}
}
