package netsim

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TestRouteValiantSteadyStateAlloc pins the Router contract stated on the
// type: repeated Route calls on a held Router reuse the per-run
// scratch (packet pool, active-link tracking, the move buffer) and
// reach zero steady-state allocations — here under Valiant routing on
// both port disciplines (router_test.go pins the plain single-port
// case). This is the dynamic guard
// behind the allocdiscipline //hot:path mark on Route — the analyzer
// rejects escapes statically, this pins the end-to-end count.
func TestRouteValiantSteadyStateAlloc(t *testing.T) {
	for _, multiPort := range []bool{true, false} {
		g := topology.Hypercube(64, multiPort)
		net := New(g)
		rt := net.NewRouter()
		rel := relation.RandomRegular(stats.NewRNG(11), g.P(), 4)
		route := func() {
			rt.Route(rel, RouteOptions{Valiant: true, Seed: 99})
		}
		route() // grow the pool and the move buffer to their high-water sizes
		if avg := testing.AllocsPerRun(10, route); avg != 0 {
			t.Errorf("multiPort=%v: warm Route allocates %.1f objects/run, want 0", multiPort, avg)
		}
	}
}

// TestMeasureGLInnerLoopAlloc pins the per-job cost of the MeasureGL
// sweep's inner loop at zero: a trial reseeds the Router's own RNG,
// draws its h permutations into the Router's buffer instead of
// materializing a relation, and routes them on the held fabric, so a
// warm Router runs a trial without allocating.
func TestMeasureGLInnerLoopAlloc(t *testing.T) {
	const trials, seed = 3, uint64(7)
	for _, multiPort := range []bool{true, false} {
		g := topology.Hypercube(64, multiPort)
		rt := New(g).NewRouter()
		j := 0
		job := func() {
			h := 1 + j%4
			if rt.trial(trialSeed(seed, h, j%trials), h, true) <= 0 {
				t.Fatal("routing did nothing")
			}
			j++
		}
		for range 4 * trials {
			job() // reach the Router's high-water sizes for every (h, trial)
		}
		if avg := testing.AllocsPerRun(4*trials, job); avg != 0 {
			t.Errorf("multiPort=%v: warm MeasureGL trial allocates %.1f objects, want 0", multiPort, avg)
		}
	}
}

// TestTrialMatchesMaterializedRelation pins the trial's draw to the
// stream it replaces: routing relation.RandomRegular's relation with
// the seed drawn after it gives the trial's steps, for every h and
// both port disciplines, with and without Valiant routing.
func TestTrialMatchesMaterializedRelation(t *testing.T) {
	for _, g := range []*topology.Graph{topology.Hypercube(32, true), topology.Hypercube(32, false), topology.Butterfly(3)} {
		net := New(g)
		rt := net.NewRouter()
		for h := 1; h <= 5; h++ {
			for _, valiant := range []bool{false, true} {
				seed := trialSeed(3, h, h%2)
				rng := stats.NewRNG(seed)
				rel := relation.RandomRegular(rng, g.P(), h)
				want := net.Route(rel, RouteOptions{Valiant: valiant, Seed: rng.Uint64()}).Steps
				if got := rt.trial(seed, h, valiant); got != want {
					t.Errorf("%s h=%d valiant=%v: trial routes in %d steps, materialized relation in %d", g.Name, h, valiant, got, want)
				}
			}
		}
	}
}

// TestNewRejectsHighDegree: a node with more links than the arbiter's
// 64-bit mask holds fails fast in New with a netsim-prefixed message
// naming the node and its degree. A 66-node star's hub has degree 65.
func TestNewRejectsHighDegree(t *testing.T) {
	const leaves = 65
	adj := make([][]int, leaves+1)
	procs := make([]int, leaves+1)
	for v := 1; v <= leaves; v++ {
		adj[0] = append(adj[0], v)
		adj[v] = []int{0}
		procs[v] = v
	}
	g := &topology.Graph{Name: "star(66)", Adj: adj, Processors: procs}
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "netsim: star(66) node 0 has degree 65") {
			t.Fatalf("New on a degree-65 node panicked with %q", msg)
		}
	}()
	New(g)
}
