package mincut

import (
	"math/rand"
	"slices"
	"testing"
)

// randomNetwork builds a pseudo-random layered flow network resembling the
// CFG-shaped graphs COCO produces: a source, layers of nodes joined by
// forward, skip and back arcs, and a sink.
func randomNetwork(rng *rand.Rand, layers, width int) (g *Graph, s, t int) {
	n := layers*width + 2
	g = New(n)
	s, t = n-2, n-1
	node := func(l, i int) int { return l*width + i }
	for i := 0; i < width; i++ {
		g.AddArc(s, node(0, i), int64(1+rng.Intn(50)))
		g.AddArc(node(layers-1, i), t, int64(1+rng.Intn(50)))
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				if rng.Intn(3) == 0 {
					continue // sparsify
				}
				g.AddArc(node(l, i), node(l+1, j), int64(1+rng.Intn(50)))
			}
			// Occasional skip arc and back arc, as control-flow joins
			// and loop shapes produce.
			if l+2 < layers && rng.Intn(4) == 0 {
				g.AddArc(node(l, i), node(l+2, rng.Intn(width)), int64(1+rng.Intn(50)))
			}
			if l > 0 && rng.Intn(6) == 0 {
				g.AddArc(node(l, i), node(l-1, rng.Intn(width)), int64(1+rng.Intn(50)))
			}
		}
	}
	return g, s, t
}

// anchor pins a few nodes to each side with Inf arcs, as COCO's flow
// graphs do for instructions fixed in a thread. A node pinned to both
// sides leaves no finite cut, which COCO reports as an error.
func anchor(rng *rand.Rand, g *Graph, s, t int) {
	for i := 0; i < 2; i++ {
		g.AddArc(s, rng.Intn(g.n-2), Inf)
		g.AddArc(rng.Intn(g.n-2), t, Inf)
	}
}

// randomDigraph builds an unstructured network with cycles and arcs into
// the source and out of the sink; s is node 0 and t node n-1.
func randomDigraph(rng *rand.Rand) (g *Graph, s, t int) {
	n := 4 + rng.Intn(6)
	g = New(n)
	for i := 0; i < 3*n; i++ {
		if from, to := rng.Intn(n), rng.Intn(n); from != to {
			g.AddArc(from, to, int64(1+rng.Intn(20)))
		}
	}
	return g, 0, n - 1
}

// enumerateCuts tries every set of nodes that holds s and not t and
// returns the minimum cost of the arcs leaving one, with the arcs leaving
// the intersection and the union of all sets of that cost. Minimum cuts
// are closed under both, so those two are the canonical cuts closest to
// the source and to the sink.
func enumerateCuts(g *Graph, s, t int) (cost int64, nearSource, nearSink []ArcID) {
	leaving := func(set int) (ids []ArcID, c int64) {
		for k := 0; k < len(g.arcs)/2; k++ {
			from, to := g.ArcEnds(ArcID(k))
			if g.ArcCap(ArcID(k)) > 0 && set>>from&1 == 1 && set>>to&1 == 0 {
				ids = append(ids, ArcID(k))
				c += g.ArcCap(ArcID(k))
			}
		}
		return ids, c
	}
	cost = -1
	var inter, union int
	for set := 0; set < 1<<g.n; set++ {
		if set>>s&1 == 0 || set>>t&1 == 1 {
			continue
		}
		switch _, c := leaving(set); {
		case cost < 0 || c < cost:
			cost, inter, union = c, set, set
		case c == cost:
			inter &= set
			union |= set
		}
	}
	nearSource, _ = leaving(inter)
	nearSink, _ = leaving(union)
	return cost, nearSource, nearSink
}

// TestMaxFlowMatchesCutEnumeration is the engine-independent oracle for
// MaxFlow and both cut extractions: on networks small enough to try every
// cut, the flow must equal the cheapest cut and the two extracted cuts must
// be exactly the canonical ones — contained in, respectively containing,
// the source set of every minimum cut. COCO's placements are deterministic
// because of that uniqueness, whatever maximum flow the algorithm found.
func TestMaxFlowMatchesCutEnumeration(t *testing.T) {
	// Every layered shape of at most 9 nodes with a choice of paths.
	shapes := []struct{ layers, width int }{{2, 2}, {2, 3}, {3, 2}}
	layered := func(rng *rand.Rand, i int) (*Graph, int, int) {
		return randomNetwork(rng, shapes[i%len(shapes)].layers, shapes[i%len(shapes)].width)
	}
	const trials = 300
	for _, gen := range []struct {
		name     string
		build    func(rng *rand.Rand, i int) (g *Graph, s, t int)
		infinite bool // some networks have no finite cut
	}{
		{"layered", layered, false},
		{"anchored", func(rng *rand.Rand, i int) (*Graph, int, int) {
			g, s, t := layered(rng, i)
			anchor(rng, g, s, t)
			return g, s, t
		}, true},
		{"digraph", func(rng *rand.Rand, _ int) (*Graph, int, int) { return randomDigraph(rng) }, false},
	} {
		t.Run(gen.name, func(t *testing.T) {
			finite := 0
			for i := 0; i < trials; i++ {
				g, s, tt := gen.build(rand.New(rand.NewSource(int64(i))), i)
				if g.n > 9 {
					t.Fatalf("seed %d: %d nodes is too many to enumerate", i, g.n)
				}
				want, nearSource, nearSink := enumerateCuts(g, s, tt)
				if got := g.MaxFlow(s, tt); got != want {
					t.Fatalf("seed %d: MaxFlow = %d, cheapest cut costs %d", i, got, want)
				}
				src, snk := g.MinCutSourceSide(s), g.MinCutSinkSide(tt)
				if !slices.Equal(src, nearSource) {
					t.Fatalf("seed %d: source-side cut %v, smallest minimum cut %v", i, src, nearSource)
				}
				if !slices.Equal(snk, nearSink) {
					t.Fatalf("seed %d: sink-side cut %v, largest minimum cut %v", i, snk, nearSink)
				}
				for _, cut := range [][]ArcID{src, snk} {
					if c := g.CutCost(cut); c != want {
						t.Fatalf("seed %d: cut %v costs %d, flow is %d", i, cut, c, want)
					}
					for _, id := range cut {
						if want < Inf && g.ArcCap(id) >= Inf {
							t.Fatalf("seed %d: cut %v holds Inf arc %d", i, cut, id)
						}
					}
				}
				if want < Inf {
					finite++
				}
			}
			if finite == 0 || (finite < trials) != gen.infinite {
				t.Errorf("%d of %d networks have a finite cut", finite, trials)
			}
		})
	}
}
