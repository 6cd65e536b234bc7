package mincut

import (
	"math/rand"
	"reflect"
	"testing"
)

// cfgShapedGraph builds a CFG-shaped flow network: a chain of diamonds, the
// structure register min-cut sees in practice.
func cfgShapedGraph(diamonds int, rng *rand.Rand) (*Graph, int, int) {
	n := diamonds*3 + 2
	g := New(n)
	prev := 0
	node := 1
	for d := 0; d < diamonds; d++ {
		a, bn, c := node, node+1, node+2
		node += 3
		w := int64(1 + rng.Intn(100))
		g.AddArc(prev, a, w+int64(rng.Intn(20)))
		g.AddArc(a, bn, w/2+1)
		g.AddArc(a, c, w/2+1)
		g.AddArc(bn, c, w+1)
		prev = c
	}
	g.AddArc(prev, n-1, int64(1+rng.Intn(100)))
	return g, 0, n - 1
}

func TestMaxFlowClassic(t *testing.T) {
	clrs := New(6)
	clrs.AddArc(0, 1, 16)
	clrs.AddArc(0, 2, 13)
	clrs.AddArc(1, 2, 10)
	clrs.AddArc(2, 1, 4)
	clrs.AddArc(1, 3, 12)
	clrs.AddArc(3, 2, 9)
	clrs.AddArc(2, 4, 14)
	clrs.AddArc(4, 3, 7)
	clrs.AddArc(3, 5, 20)
	clrs.AddArc(4, 5, 4)
	// 182 nodes, far past what the cut-enumeration oracle can try: the
	// chain's narrowest diamond lets 2 through.
	cfg, s, sink := cfgShapedGraph(60, rand.New(rand.NewSource(5)))
	for _, c := range []struct {
		name    string
		g       *Graph
		s, sink int
		want    int64
	}{
		{"CLRS network", clrs, 0, 5, 23},
		{"60 CFG diamonds, seed 5", cfg, s, sink, 2},
	} {
		if got := c.g.MaxFlow(c.s, c.sink); got != c.want {
			t.Errorf("%s: MaxFlow = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestMaxFlowSourceIsSink pins the s == t guard: without it the BFS never
// runs, the bottleneck walk is empty, and the augmenting loop adds Inf*4
// forever.
func TestMaxFlowSourceIsSink(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 4)
	g.AddArc(1, 2, 4)
	g.AddArc(2, 1, 4)
	if got := g.MaxFlow(1, 1); got != 0 {
		t.Errorf("MaxFlow(1, 1) = %d, want 0", got)
	}
}

func TestMinCutExtraction(t *testing.T) {
	// Chain with a cheap middle arc: s -10-> a -3-> b -10-> t.
	g := New(4)
	g.AddArc(0, 1, 10)
	mid := g.AddArc(1, 2, 3)
	g.AddArc(2, 3, 10)
	if got := g.MaxFlow(0, 3); got != 3 {
		t.Fatalf("MaxFlow = %d, want 3", got)
	}
	for _, side := range []struct {
		name string
		cut  []ArcID
	}{
		{"source", g.MinCutSourceSide(0)},
		{"sink", g.MinCutSinkSide(3)},
	} {
		if len(side.cut) != 1 || side.cut[0] != mid {
			t.Errorf("%s-side cut = %v, want [%d]", side.name, side.cut, mid)
		}
	}
	if got := g.CutCost([]ArcID{mid}); got != 3 {
		t.Errorf("CutCost = %d, want 3", got)
	}
}

func TestSourceVsSinkSideCuts(t *testing.T) {
	// Two equal-cost cuts: s -5-> a -5-> t. Source side picks the first
	// arc, sink side the second.
	g := New(3)
	first := g.AddArc(0, 1, 5)
	second := g.AddArc(1, 2, 5)
	g.MaxFlow(0, 2)
	src := g.MinCutSourceSide(0)
	if len(src) != 1 || src[0] != first {
		t.Errorf("source-side cut = %v, want [%d]", src, first)
	}
	snk := g.MinCutSinkSide(2)
	if len(snk) != 1 || snk[0] != second {
		t.Errorf("sink-side cut = %v, want [%d]", snk, second)
	}
}

func TestInfiniteArcsNeverCut(t *testing.T) {
	// s -Inf-> a -7-> b -Inf-> t: only the finite arc can be cut.
	g := New(4)
	g.AddArc(0, 1, Inf)
	fin := g.AddArc(1, 2, 7)
	g.AddArc(2, 3, Inf)
	if got := g.MaxFlow(0, 3); got != 7 {
		t.Fatalf("MaxFlow = %d, want 7", got)
	}
	cut := g.MinCutSourceSide(0)
	if len(cut) != 1 || cut[0] != fin {
		t.Errorf("cut = %v, want only the finite arc", cut)
	}
}

// lateArcNetwork has two pairs, (0,5) and (1,6), whose paths share a late
// arc:
//
//	0(d) -> 2(m) -12-> 3(x) ; 1(g) -8-> 3(x) ; 3 -8-> 4 ; 4 -> sinks
func lateArcNetwork() (g *Graph, shared ArcID) {
	g = New(7)
	g.AddArc(0, 2, 12)
	g.AddArc(2, 3, 12)
	g.AddArc(1, 3, 8)
	shared = g.AddArc(3, 4, 8)
	g.AddArc(4, 5, Inf)
	g.AddArc(4, 6, Inf)
	return g, shared
}

func TestMultiCutSharesArcs(t *testing.T) {
	g, shared := lateArcNetwork()
	res := MultiCut(g, []Pair{{0, 5}, {1, 6}})
	if res.Cost != 8 {
		t.Errorf("MultiCut cost = %d, want 8 (shared arc)", res.Cost)
	}
	if len(res.Arcs) != 1 || res.Arcs[0] != shared {
		t.Errorf("MultiCut arcs = %v, want [%d]", res.Arcs, shared)
	}
}

// TestMultiCutIndependentDoesNotShare is the other side: cut alone, each
// pair pays for the late arc itself, so what MultiCut saves is the sharing.
func TestMultiCutIndependentDoesNotShare(t *testing.T) {
	var cost int64
	for _, p := range []Pair{{0, 5}, {1, 6}} {
		g, _ := lateArcNetwork()
		cost += MultiCut(g, []Pair{p}).Cost
	}
	if cost != 16 {
		t.Errorf("independent cost = %d, want 16 (8 per pair)", cost)
	}
}

func TestMultiCutAlreadyDisconnected(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 5)
	// Node 2,3 disconnected from 0.
	g.AddArc(2, 3, 5)
	// A pair whose source is its sink has no cut to find either.
	for _, p := range []Pair{{0, 3}, {1, 1}} {
		res := MultiCut(g, []Pair{p})
		if res.Cost != 0 || len(res.Arcs) != 0 {
			t.Errorf("pair %v produced cut %v cost %d", p, res.Arcs, res.Cost)
		}
	}
}

// TestCutDisconnects verifies that removing the extracted cut arcs actually
// disconnects source from sink on random graphs.
func TestCutDisconnects(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(10)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from != to {
				g.AddArc(from, to, int64(1+rng.Intn(9)))
			}
		}
		if g.MaxFlow(0, n-1) == 0 {
			continue
		}
		for _, id := range g.MinCutSinkSide(n - 1) {
			g.RemoveArc(id)
		}
		g.Reset()
		if f := g.MaxFlow(0, n-1); f != 0 {
			t.Fatalf("trial %d: flow %d remains after removing cut", trial, f)
		}
	}
}

func TestArcAccessors(t *testing.T) {
	g := New(3)
	id := g.AddArc(0, 2, 9)
	from, to := g.ArcEnds(id)
	if from != 0 || to != 2 {
		t.Errorf("ArcEnds = (%d,%d), want (0,2)", from, to)
	}
	if g.ArcCap(id) != 9 {
		t.Errorf("ArcCap = %d, want 9", g.ArcCap(id))
	}
	g.MaxFlow(0, 2)
	if g.Flow(id) != 9 {
		t.Errorf("Flow = %d, want 9", g.Flow(id))
	}
	g.Reset()
	if g.Flow(id) != 0 {
		t.Errorf("Flow after Reset = %d, want 0", g.Flow(id))
	}
}

// TestRewrittenGraphMatchesFresh: a network rewritten in place (SetCap on
// the kept arcs, Truncate of the arcs added for the previous solve) must
// give the flow and both canonical cuts of a network built from scratch.
func TestRewrittenGraphMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type edge struct{ from, to int }
	const n = 12
	var skeleton []edge
	for i := 0; i < 40; i++ {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			skeleton = append(skeleton, edge{a, b})
		}
	}
	reused := New(n + 2)
	for _, e := range skeleton {
		reused.AddArc(e.from, e.to, 0)
	}
	s, sink := n, n+1
	for round := 0; round < 50; round++ {
		fresh := New(n + 2)
		reused.Truncate(len(skeleton))
		for k, e := range skeleton {
			c := int64(rng.Intn(6)) // 0 takes the arc out of the network
			if rng.Intn(8) == 0 {
				c = Inf
			}
			reused.SetCap(ArcID(k), c)
			fresh.AddArc(e.from, e.to, c)
		}
		for _, g := range []*Graph{reused, fresh} {
			g.AddArc(s, round%n, Inf)
			g.AddArc(s, (round+5)%n, Inf)
			g.AddArc((round+3)%n, sink, Inf)
		}
		if got, want := reused.MaxFlow(s, sink), fresh.MaxFlow(s, sink); got != want {
			t.Fatalf("round %d: flow %d on the rewritten network, %d on a fresh one", round, got, want)
		}
		if got, want := reused.MinCutSourceSide(s), fresh.MinCutSourceSide(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: source-side cut %v, fresh %v", round, got, want)
		}
		if got, want := reused.MinCutSinkSide(sink), fresh.MinCutSinkSide(sink); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: sink-side cut %v, fresh %v", round, got, want)
		}
	}
}
