package mincut

// Pair is one source–sink commodity of a multicut problem: the cut must
// disconnect every pair's source from its sink.
type Pair struct{ S, T int }

// MultiCutResult reports the arcs chosen by the multicut heuristic and
// their total original cost.
type MultiCutResult struct {
	Arcs []ArcID
	Cost int64
}

// MultiCut approximates the NP-hard minimum multicut with the paper's
// heuristic (Section 3.1.3): the optimal single-pair algorithm is applied to
// each source–sink pair in turn, and arcs cut for one pair are removed from
// the graph so they help disconnect subsequent pairs. Cuts are extracted on
// the sink side, pushing synchronization as late as possible so downstream
// pairs share it.
//
// The graph is mutated (flows and removed arcs); callers that need it again
// must rebuild it. Pairs already disconnected (max-flow 0) contribute no
// arcs.
func MultiCut(g *Graph, pairs []Pair) MultiCutResult {
	var res MultiCutResult
	for _, p := range pairs {
		g.Reset()
		if g.MaxFlow(p.S, p.T) == 0 {
			continue // already disconnected by earlier cuts
		}
		cut := g.MinCutSinkSide(p.T)
		for _, id := range cut {
			res.Cost += g.ArcCap(id)
			g.RemoveArc(id)
		}
		res.Arcs = append(res.Arcs, cut...)
	}
	return res
}
