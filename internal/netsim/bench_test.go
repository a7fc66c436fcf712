package netsim

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// benchRelation builds a fixed dense relation for the routing
// benchmarks, outside the timed region.
func benchRelation(g *topology.Graph, h int, seed uint64) relation.Relation {
	rng := stats.NewRNG(seed)
	return relation.RandomRegular(rng, g.P(), h)
}

// BenchmarkRoute measures one Route call on a reused Router — the hot
// path behind every MeasureGL trial. Steady-state allocations must be
// ~0: the packet pool, bitsets, and move buffer reach their high-water
// marks in the first iteration.
func BenchmarkRoute(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"hypercube-multi(64)", topology.Hypercube(64, true)},
		{"hypercube-single(64)", topology.Hypercube(64, false)},
		{"mesh(64)", topology.Array(8, 2, false)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			net := New(bc.g)
			rt := net.NewRouter()
			rel := benchRelation(bc.g, 8, 1)
			b.ReportAllocs()
			b.ResetTimer()
			var hops int64
			for i := 0; i < b.N; i++ {
				r := rt.Route(rel, RouteOptions{Seed: uint64(i)})
				if r.Steps == 0 {
					b.Fatal("no routing happened")
				}
				hops += r.TotalHops
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
		})
	}
}

// BenchmarkStepper measures draining an h-relation through the
// incremental Stepper, the co-simulation path of internal/netlogp.
func BenchmarkStepper(b *testing.B) {
	g := topology.Hypercube(64, false)
	net := New(g)
	rel := benchRelation(g, 8, 2)
	var pairs []relation.Pair
	for _, pr := range rel.Pairs {
		if pr.Src != pr.Dst {
			pairs = append(pairs, pr)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := net.NewStepper()
		for j, pr := range pairs {
			st.Inject(int64(j+1), pr.Src, pr.Dst)
		}
		for st.Pending() > 0 {
			st.Advance()
		}
	}
}

// BenchmarkMeasureGL times the full measurement pipeline of one E1
// row (network build, relation generation, routing, fitting).
func BenchmarkMeasureGL(b *testing.B) {
	g := topology.Hypercube(64, false)
	hs := []int{1, 2, 4, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := MeasureGL(g, hs, 3, uint64(i+1), false)
		if m.G <= 0 {
			b.Fatal("degenerate fit")
		}
	}
}

// BenchmarkMeasureGLTable1 times one single-worker MeasureGL sweep
// (E1's grid h = 1, 2, 4, 8, 16, 3 trials) on each of Table 1's eight
// graphs at about 256 processors, as E1 builds them at paper size, on
// a held Router. ns/hop is the wall time per simulated link traversal,
// relation draws included: the figure the packet fabric moves.
func BenchmarkMeasureGLTable1(b *testing.B) {
	for _, g := range []*topology.Graph{
		topology.Array(16, 2, false),
		topology.Array(7, 3, false),
		topology.Hypercube(256, true),
		topology.Hypercube(256, false),
		topology.Butterfly(6),
		topology.CCC(6),
		topology.ShuffleExchange(8),
		topology.MeshOfTrees(16),
	} {
		b.Run(g.Name, func(b *testing.B) {
			net := New(g)
			hs := []int{1, 2, 4, 8, 16}
			b.ReportAllocs()
			b.ResetTimer()
			start := SimHopCount()
			for i := 0; i < b.N; i++ {
				if m := net.measureGL(hs, 3, uint64(i+1), false, 1); m.G <= 0 {
					b.Fatal("degenerate fit")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(SimHopCount()-start), "ns/hop")
		})
	}
}
