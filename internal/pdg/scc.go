package pdg

import "repro/internal/ir"

// SCC is a strongly connected component of the PDG: a set of instructions
// that must stay in one DSWP pipeline stage because they form a dependence
// cycle.
type SCC struct {
	Instrs []*ir.Instr
	// Succs are the indices (into the SCC list) of components this one has
	// arcs into.
	Succs []int
}

// SCCs computes the strongly connected components of the graph with
// Tarjan's algorithm and returns them in a topological order of the
// condensation (sources first). The result also carries the condensed
// successor relation.
func (g *Graph) SCCs() []*SCC {
	ids, n := g.Fn.NumInstrIDs(), g.Fn.NumInstrs()
	// index[id] is the instruction's visitation number, counted from 1 so
	// that 0 means unvisited; sccOf[id] reuses the table once Tarjan is done.
	index := make([]int, ids)
	low := make([]int, ids)
	onStack := make([]bool, ids)
	stack := make([]*ir.Instr, 0, n)
	// Tarjan emits every component's instructions back to back into
	// members; ends[k] is one past the last of the k-th component emitted.
	members := make([]*ir.Instr, 0, n)
	ends := make([]int, 0, n)
	counter := 0

	var strongconnect func(v *ir.Instr)
	strongconnect = func(v *ir.Instr) {
		counter++
		index[v.ID] = counter
		low[v.ID] = counter
		stack = append(stack, v)
		onStack[v.ID] = true

		for _, a := range g.OutArcs(v) {
			w := a.To
			if index[w.ID] == 0 {
				strongconnect(w)
				if low[w.ID] < low[v.ID] {
					low[v.ID] = low[w.ID]
				}
			} else if onStack[w.ID] && index[w.ID] < low[v.ID] {
				low[v.ID] = index[w.ID]
			}
		}

		if low[v.ID] == index[v.ID] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w.ID] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			ends = append(ends, len(members))
		}
	}

	g.Fn.Instrs(func(in *ir.Instr) {
		if index[in.ID] == 0 {
			strongconnect(in)
		}
	})

	// Tarjan emits components in reverse topological order: the k-th
	// emitted is component len(ends)-1-k.
	sccOf := index
	scc := make([]SCC, len(ends))
	out := make([]*SCC, len(ends))
	start := 0
	for k, end := range ends {
		ci := len(ends) - 1 - k
		scc[ci].Instrs = members[start:end:end]
		out[ci] = &scc[ci]
		for _, in := range scc[ci].Instrs {
			sccOf[in.ID] = ci
		}
		start = end
	}
	// succsOf calls fn for each component ci has arcs into, once each, in
	// arc order; seen[cj] == mark: cj was already named.
	seen := make([]int, len(scc))
	succsOf := func(ci, mark int, fn func(cj int)) {
		for _, in := range scc[ci].Instrs {
			for _, a := range g.OutArcs(in) {
				if cj := sccOf[a.To.ID]; cj != ci && seen[cj] != mark {
					seen[cj] = mark
					fn(cj)
				}
			}
		}
	}
	// Count every component's successors, then list them back to back.
	nSuccs := 0
	for ci := range scc {
		succsOf(ci, ci+1, func(int) { nSuccs++ })
	}
	succs := make([]int, 0, nSuccs)
	for ci := range scc {
		start := len(succs)
		succsOf(ci, -(ci + 1), func(cj int) { succs = append(succs, cj) })
		if len(succs) > start {
			scc[ci].Succs = succs[start:len(succs):len(succs)]
		}
	}
	return out
}
