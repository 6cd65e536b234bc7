// Package pdg builds the Program Dependence Graph [Ferrante et al.] for a
// function: the representation every GMT instruction scheduler partitions
// (Figure 2 of the paper). Nodes are instructions; arcs are register data
// dependences (def→use chains), memory dependences (may-aliasing accesses
// ordered by control-flow reachability), and control dependences (branch →
// controlled instruction).
package pdg

import (
	"fmt"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Kind classifies a dependence arc.
type Kind uint8

const (
	// KindReg is a register flow dependence: From defines a register that
	// To may read.
	KindReg Kind = iota
	// KindMem is a memory dependence (true, anti, or output): From and To
	// access may-aliasing locations and From may execute before To.
	KindMem
	// KindControl is a control dependence: From is a branch that decides
	// whether To executes.
	KindControl
)

// String returns "reg", "mem" or "control".
func (k Kind) String() string {
	switch k {
	case KindReg:
		return "reg"
	case KindMem:
		return "mem"
	case KindControl:
		return "control"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Arc is one dependence.
type Arc struct {
	From, To *ir.Instr
	Kind     Kind
	Reg      ir.Reg // the register carrying a KindReg dependence
}

// String renders the arc for diagnostics.
func (a *Arc) String() string {
	s := fmt.Sprintf("(%v) -%s", a.From, a.Kind)
	if a.Kind == KindReg {
		s += fmt.Sprintf("[%v]", a.Reg)
	}
	return s + fmt.Sprintf("-> (%v)", a.To)
}

// Graph is the PDG of one function.
type Graph struct {
	Fn   *ir.Function
	Arcs []*Arc
	// Chains are the reaching-definition chains the register arcs were
	// built from and CDG the control dependences behind the control arcs.
	// The planners downstream (mtcg.NaivePlan, coco.Plan) read them here
	// instead of analysing Fn again.
	Chains []dataflow.UseChain
	CDG    *analysis.CDG

	out map[int][]*Arc // instr ID -> outgoing arcs
	in  map[int][]*Arc // instr ID -> incoming arcs
}

// Build constructs the PDG of f. objects is the memory-object table used by
// the points-to analysis; pass nil if f performs no memory accesses.
func Build(f *ir.Function, objects []ir.MemObject) *Graph {
	g := &Graph{Fn: f, out: map[int][]*Arc{}, in: map[int][]*Arc{}}
	seen := map[string]bool{}
	add := func(a Arc) {
		key := fmt.Sprintf("%d/%d/%d/%d", a.From.ID, a.To.ID, a.Kind, a.Reg)
		if seen[key] {
			return
		}
		seen[key] = true
		arc := &a
		g.Arcs = append(g.Arcs, arc)
		g.out[a.From.ID] = append(g.out[a.From.ID], arc)
		g.in[a.To.ID] = append(g.in[a.To.ID], arc)
	}

	// Register dependences from reaching-definition chains. Parameter
	// pseudo-definitions (nil) need no arcs: every thread starts with a
	// copy of the live-ins.
	g.Chains = dataflow.ComputeReachingDefs(f).Chains(dataflow.AllUses)
	for _, uc := range g.Chains {
		for _, def := range uc.Defs {
			if def == nil {
				continue
			}
			add(Arc{From: def, To: uc.Use, Kind: KindReg, Reg: uc.Reg})
		}
	}

	// Memory dependences: for each may-aliasing pair with at least one
	// store, an arc in every direction permitted by control flow. Inside
	// loops both directions are typically reachable, which is what makes
	// memory dependences "essentially bi-directional" (Section 4) and
	// forces the instructions into one DSWP pipeline stage.
	al := alias.Analyze(f, objects)
	var mems []*ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Op.IsMemAccess() {
			mems = append(mems, in)
		}
	})
	reach := analysis.Reachability(f)
	ordered := func(a, b *ir.Instr) bool {
		if a.Block() == b.Block() {
			if a.Index() < b.Index() {
				return true
			}
			// Later instruction reaches the earlier one only around a
			// cycle through the block itself.
			return reach[a.Block().ID][b.Block().ID]
		}
		return reach[a.Block().ID][b.Block().ID]
	}
	for i, a := range mems {
		for _, b := range mems[i+1:] {
			if a.Op != ir.Store && b.Op != ir.Store {
				continue // load-load pairs are unordered
			}
			if !al.MayAlias(a, b) {
				continue
			}
			if ordered(a, b) {
				add(Arc{From: a, To: b, Kind: KindMem})
			}
			if ordered(b, a) {
				add(Arc{From: b, To: a, Kind: KindMem})
			}
		}
	}

	// Control dependences: the branch terminating block u controls every
	// instruction of each block control dependent on u.
	g.CDG = analysis.MustControlDeps(f, nil)
	for _, blk := range f.Blocks {
		for _, d := range g.CDG.Deps(blk) {
			br := d.Branch.Terminator()
			for _, in := range blk.Instrs {
				if in == br || in.Op == ir.Jump {
					// A branch needs no self arc, and unconditional
					// jumps are structural: thread CFGs rebuild their
					// own terminators, so jumps take no part in
					// partitioning or dependence enforcement.
					continue
				}
				add(Arc{From: br, To: in, Kind: KindControl})
			}
		}
	}
	return g
}

// OutArcs returns the dependences whose source is in.
func (g *Graph) OutArcs(in *ir.Instr) []*Arc { return g.out[in.ID] }

// InArcs returns the dependences whose target is in.
func (g *Graph) InArcs(in *ir.Instr) []*Arc { return g.in[in.ID] }

// NumArcs returns the number of dependence arcs.
func (g *Graph) NumArcs() int { return len(g.Arcs) }

// ArcsBetween returns the arcs from one instruction set into another, where
// membership is given by thread assignment.
func (g *Graph) ArcsBetween(assign map[*ir.Instr]int, from, to int) []*Arc {
	var out []*Arc
	for _, a := range g.Arcs {
		if assign[a.From] == from && assign[a.To] == to && from != to {
			out = append(out, a)
		}
	}
	return out
}
