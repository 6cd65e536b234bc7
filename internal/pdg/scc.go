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
	ids := g.Fn.NumInstrIDs()
	// index[id] is the instruction's visitation number, counted from 1 so
	// that 0 means unvisited; sccOf[id] reuses the table once Tarjan is done.
	index := make([]int, ids)
	low := make([]int, ids)
	onStack := make([]bool, ids)
	members := make([]*ir.Instr, 0, g.Fn.NumInstrs()) // every component's instructions, back to back
	var stack []*ir.Instr
	var comps [][]*ir.Instr
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
			start := len(members)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w.ID] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			comps = append(comps, members[start:len(members):len(members)])
		}
	}

	g.Fn.Instrs(func(in *ir.Instr) {
		if index[in.ID] == 0 {
			strongconnect(in)
		}
	})

	// Tarjan emits components in reverse topological order; reverse them.
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}

	sccOf := index
	scc := make([]SCC, len(comps))
	out := make([]*SCC, len(comps))
	for ci, comp := range comps {
		scc[ci].Instrs = comp
		out[ci] = &scc[ci]
		for _, in := range comp {
			sccOf[in.ID] = ci
		}
	}
	// seen[cj] == ci+1: component cj is already a successor of ci.
	seen := make([]int, len(comps))
	var succs []int // every component's successors, back to back
	for ci, comp := range comps {
		start := len(succs)
		for _, in := range comp {
			for _, a := range g.OutArcs(in) {
				tj := sccOf[a.To.ID]
				if tj != ci && seen[tj] != ci+1 {
					seen[tj] = ci + 1
					succs = append(succs, tj)
				}
			}
		}
		if len(succs) > start {
			scc[ci].Succs = succs[start:len(succs):len(succs)]
		}
	}
	return out
}
