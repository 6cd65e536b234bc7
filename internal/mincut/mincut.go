// Package mincut implements the graph minimum-cut machinery behind COCO's
// communication placement: max-flow via Edmonds–Karp (the algorithm the
// paper's implementation uses, Section 4), min-cut arc extraction from
// either side of the flow, and the successive-pair heuristic for the
// NP-hard multiple source–sink ("multicut") problem of Section 3.1.3. The
// two extracted cuts are the canonical minimum cuts — unique properties of
// the network, not of the maximum flow found.
package mincut

import "math"

// Inf is the capacity used for arcs that must never participate in a cut
// (the paper sets these costs "to infinity"). It is large enough to dominate
// any realistic profile weight while leaving headroom against overflow.
const Inf int64 = math.MaxInt64 / 8

// ArcID identifies an arc returned by AddArc.
type ArcID int

type arc struct {
	to   int
	cap  int64 // residual capacity
	orig int64 // original capacity
}

// Graph is a directed flow network. Nodes are dense integers [0, n). A
// client that solves many cuts over one topology keeps one Graph and
// rewrites it between solves (SetCap, Truncate): the arcs, the adjacency
// lists and the search scratch are allocated once.
type Graph struct {
	n    int
	arcs []arc // arcs[2k] is the k-th forward arc, arcs[2k+1] its residual twin
	adj  [][]int32

	// Search scratch, reused across calls.
	parent []int32 // MaxFlow: arc index used to reach node, -1 unset
	queue  []int32 // MaxFlow: BFS order
	seen   []bool  // residualReach
	stack  []int32 // residualReach
}

// New returns an empty flow network with n nodes.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int32, n), parent: make([]int32, n), seen: make([]bool, n)}
}

// NewSized returns an empty flow network with one node per element of
// ends and room for arcs arcs, of which ends[v] touch node v. The arcs and
// the adjacency lists each take one allocation; AddArc within that room
// allocates nothing, and past it still works, growing what it must.
func NewSized(ends []int, arcs int) *Graph {
	g := New(len(ends))
	g.arcs = make([]arc, 0, 2*arcs)
	total := 0
	for _, k := range ends {
		total += k
	}
	backing := make([]int32, total)
	for v, k := range ends {
		g.adj[v] = backing[:0:k]
		backing = backing[k:]
	}
	return g
}

// AddArc adds a directed arc with the given capacity and returns its ID.
func (g *Graph) AddArc(from, to int, capacity int64) ArcID {
	id := ArcID(len(g.arcs) / 2)
	g.adj[from] = append(g.adj[from], int32(len(g.arcs)))
	g.arcs = append(g.arcs, arc{to: to, cap: capacity, orig: capacity})
	g.adj[to] = append(g.adj[to], int32(len(g.arcs)))
	g.arcs = append(g.arcs, arc{to: from, cap: 0, orig: 0})
	return id
}

// SetCap gives an existing arc a new capacity and no flow. Zero removes
// the arc from every cut and every path until it is set again.
func (g *Graph) SetCap(id ArcID, capacity int64) {
	g.arcs[2*int(id)] = arc{to: g.arcs[2*int(id)].to, cap: capacity, orig: capacity}
	g.arcs[2*int(id)+1].cap = 0
}

// Truncate deletes every arc whose ID is n or larger, undoing the AddArc
// calls made since the network had n arcs.
func (g *Graph) Truncate(n int) {
	// Adjacency lists grow in arc order, so the arcs to drop are the tails
	// of their nodes' lists, latest first.
	for i := len(g.arcs) - 1; i >= 2*n; i-- {
		from := g.arcs[i^1].to
		g.adj[from] = g.adj[from][:len(g.adj[from])-1]
	}
	g.arcs = g.arcs[:2*n]
}

// ArcEnds returns the endpoints of an arc.
func (g *Graph) ArcEnds(id ArcID) (from, to int) {
	return g.arcs[2*int(id)+1].to, g.arcs[2*int(id)].to
}

// ArcCap returns the arc's original capacity.
func (g *Graph) ArcCap(id ArcID) int64 { return g.arcs[2*int(id)].orig }

// Flow returns the flow currently routed through the arc.
func (g *Graph) Flow(id ArcID) int64 {
	a := g.arcs[2*int(id)]
	return a.orig - a.cap
}

// Reset zeroes all flow, restoring original capacities.
func (g *Graph) Reset() {
	for i := range g.arcs {
		g.arcs[i].cap = g.arcs[i].orig
	}
}

// RemoveArc deletes an arc from the network (capacity zero in both
// directions). Used by the multicut heuristic after an arc is chosen.
func (g *Graph) RemoveArc(id ArcID) { g.SetCap(id, 0) }

// MaxFlow computes the maximum s→t flow with Edmonds–Karp (BFS augmenting
// paths): O(V·E²) worst case, fast in practice on CFG-shaped graphs. A
// source that is its own sink has nothing to separate: the flow is 0.
func (g *Graph) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	var total int64
	parent, queue := g.parent, g.queue
	for {
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = -2
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue) && parent[t] == -1; head++ {
			for _, ai := range g.adj[queue[head]] {
				a := &g.arcs[ai]
				if a.cap > 0 && parent[a.to] == -1 {
					parent[a.to] = ai
					queue = append(queue, int32(a.to))
				}
			}
		}
		if parent[t] == -1 {
			g.queue = queue // keep what the searches grew it to
			return total
		}
		// Find bottleneck.
		bottleneck := Inf * 4
		for v := t; v != s; {
			ai := parent[v]
			if c := g.arcs[ai].cap; c < bottleneck {
				bottleneck = c
			}
			v = g.arcs[ai^1].to
		}
		for v := t; v != s; {
			ai := parent[v]
			g.arcs[ai].cap -= bottleneck
			g.arcs[ai^1].cap += bottleneck
			v = g.arcs[ai^1].to
		}
		total += bottleneck
	}
}

// residualReach returns the set of nodes reachable from start over arcs
// with residual capacity, or, if backwards, the set of nodes that can
// reach start over such arcs.
//
// The result is the graph's scratch: it is valid until the next call.
func (g *Graph) residualReach(start int, backwards bool) []bool {
	seen := g.seen
	for i := range seen {
		seen[i] = false
	}
	seen[start] = true
	stack := append(g.stack[:0], int32(start))
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range g.adj[u] {
			var ok bool
			var v int
			if !backwards {
				// u -> v traversable if residual capacity remains.
				ok = g.arcs[ai].cap > 0
				v = int(g.arcs[ai].to)
			} else {
				// v -> u traversable if the arc v->u has residual
				// capacity; that arc's residual twin hangs off u.
				ok = g.arcs[ai^1].cap > 0
				v = int(g.arcs[ai].to)
			}
			if ok && !seen[v] {
				seen[v] = true
				stack = append(stack, int32(v))
			}
		}
	}
	g.stack = stack
	return seen
}

// MinCutSourceSide returns, after MaxFlow, the arcs of the
// minimum cut closest to the source: arcs leaving the residual-reachable
// set of s. For register communication this is the "earliest" placement,
// which pipelines values to the consumer as soon as possible (Section 5's
// pipelining discussion).
func (g *Graph) MinCutSourceSide(s int) []ArcID {
	seen := g.residualReach(s, false)
	return g.crossingArcs(seen)
}

// MinCutSinkSide returns the minimum cut closest to the sink: arcs entering
// the set of nodes that can still reach t in the residual graph. Pushing
// cuts late maximizes sharing between source–sink pairs, which is what the
// memory multicut heuristic wants.
func (g *Graph) MinCutSinkSide(t int) []ArcID {
	// Source side = complement of the nodes that can reach t.
	sourceSide := g.residualReach(t, true)
	for i := range sourceSide {
		sourceSide[i] = !sourceSide[i]
	}
	return g.crossingArcs(sourceSide)
}

// crossingArcs returns the saturated forward arcs from the set to its
// complement.
func (g *Graph) crossingArcs(inSet []bool) []ArcID {
	var out []ArcID
	for k := 0; k < len(g.arcs)/2; k++ {
		fwd := g.arcs[2*k]
		from := g.arcs[2*k+1].to
		if fwd.orig > 0 && inSet[from] && !inSet[fwd.to] {
			out = append(out, ArcID(k))
		}
	}
	return out
}

// CutCost sums the original capacities of the given arcs.
func (g *Graph) CutCost(ids []ArcID) int64 {
	var c int64
	for _, id := range ids {
		c += g.ArcCap(id)
	}
	return c
}
