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
	// PostDom is the post-dominator tree CDG was computed from. The plans
	// carry it to mtcg.Generate, which places each thread's blocks by it.
	PostDom *analysis.DomTree

	out, in adjacency
}

// adjacency lists each instruction's arcs in arc order: instruction ID i's
// arcs are arcs[start[i]:start[i+1]].
type adjacency struct {
	start []int32
	arcs  []*Arc
}

// of returns instruction ID id's arcs, nil when it has none or the ID lies
// outside the function.
func (a *adjacency) of(id int) []*Arc {
	if uint(id) >= uint(len(a.start)-1) {
		return nil
	}
	lo, hi := a.start[id], a.start[id+1]
	if lo == hi {
		return nil
	}
	return a.arcs[lo:hi:hi]
}

// Build constructs the PDG of f. objects is the memory-object table used by
// the points-to analysis; pass nil if f performs no memory accesses.
func Build(f *ir.Function, objects []ir.MemObject) *Graph {
	g := &Graph{Fn: f}
	// No arc is added twice, so none needs deduplication: the chains name
	// each (definition, use, register) once, the memory loop visits each
	// ordered pair once, and the control loop skips a branch a block's
	// dependences name twice.
	g.Chains = dataflow.ComputeReachingDefs(f).Chains(dataflow.AllUses)
	pdom, err := analysis.PostDominators(f)
	if err != nil {
		panic(err) // Build takes verified functions, which have a Ret
	}
	g.PostDom = pdom
	g.CDG = analysis.MustControlDeps(f, pdom)

	// Register and control arcs are counted before they are made, and cut
	// from one slab of that size. Parameter pseudo-definitions (nil) need
	// no arcs: every thread starts with a copy of the live-ins.
	nReg, nCtrl := 0, 0
	for _, uc := range g.Chains {
		for _, def := range uc.Defs {
			if def != nil {
				nReg++
			}
		}
	}
	g.controlArcs(func(_, _ *ir.Instr) { nCtrl++ })
	slab := make([]Arc, 0, nReg+nCtrl)
	for _, uc := range g.Chains {
		for _, def := range uc.Defs {
			if def != nil {
				slab = append(slab, Arc{From: def, To: uc.Use, Kind: KindReg, Reg: uc.Reg})
			}
		}
	}
	g.controlArcs(func(br, in *ir.Instr) {
		slab = append(slab, Arc{From: br, To: in, Kind: KindControl})
	})

	// Memory dependences: for each may-aliasing pair with at least one
	// store, an arc in every direction permitted by control flow. Inside
	// loops both directions are typically reachable, which is what makes
	// memory dependences "essentially bi-directional" (Section 4) and
	// forces the instructions into one DSWP pipeline stage.
	al := alias.Analyze(f, objects)
	type access struct {
		in       *ir.Instr
		blk, idx int // block ID and position in it
	}
	var mems []access
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op.IsMemAccess() {
				mems = append(mems, access{in, b.ID, i})
			}
		}
	}
	reach := analysis.Reachability(f)
	// ordered reports whether a may execute before b. A later instruction
	// of the same block reaches an earlier one only around a cycle through
	// the block itself.
	ordered := func(a, b access) bool {
		return a.blk == b.blk && a.idx < b.idx || reach[a.blk][b.blk]
	}
	var mem []Arc
	for i, a := range mems {
		for _, b := range mems[i+1:] {
			if a.in.Op != ir.Store && b.in.Op != ir.Store {
				continue // load-load pairs are unordered
			}
			if !al.MayAlias(a.in, b.in) {
				continue
			}
			if ordered(a, b) {
				mem = append(mem, Arc{From: a.in, To: b.in, Kind: KindMem})
			}
			if ordered(b, a) {
				mem = append(mem, Arc{From: b.in, To: a.in, Kind: KindMem})
			}
		}
	}

	// Arcs list register, then memory, then control dependences.
	g.Arcs = make([]*Arc, 0, len(slab)+len(mem))
	for i := range slab[:nReg] {
		g.Arcs = append(g.Arcs, &slab[i])
	}
	for i := range mem {
		g.Arcs = append(g.Arcs, &mem[i])
	}
	for i := range slab[nReg:] {
		g.Arcs = append(g.Arcs, &slab[nReg+i])
	}
	g.out = index(g.Arcs, f.NumInstrIDs(), func(a *Arc) int { return a.From.ID })
	g.in = index(g.Arcs, f.NumInstrIDs(), func(a *Arc) int { return a.To.ID })
	return g
}

// controlArcs calls fn for every control dependence in block order: the
// branch terminating block u controls every instruction of each block
// control dependent on u.
func (g *Graph) controlArcs(fn func(br, in *ir.Instr)) {
	for _, blk := range g.Fn.Blocks {
		deps := g.CDG.Deps(blk)
		for k, d := range deps {
			if namedBefore(deps[:k], d.Branch) {
				continue // both edges of one branch reach blk
			}
			br := d.Branch.Terminator()
			for _, in := range blk.Instrs {
				if in == br || in.Op == ir.Jump {
					// A branch needs no self arc, and unconditional
					// jumps are structural: thread CFGs rebuild their
					// own terminators, so jumps take no part in
					// partitioning or dependence enforcement.
					continue
				}
				fn(br, in)
			}
		}
	}
}

// namedBefore reports whether one of deps names branch block br.
func namedBefore(deps []analysis.CtrlDep, br *ir.Block) bool {
	for _, d := range deps {
		if d.Branch == br {
			return true
		}
	}
	return false
}

// index groups arcs by the instruction ID end returns, keeping arc order
// within each group (a counting sort).
func index(arcs []*Arc, ids int, end func(*Arc) int) adjacency {
	adj := adjacency{start: make([]int32, ids+1), arcs: make([]*Arc, len(arcs))}
	for _, a := range arcs {
		adj.start[end(a)]++
	}
	var sum int32
	for id := range ids {
		sum += adj.start[id]
		adj.start[id] = sum // one past the group's last slot
	}
	adj.start[ids] = sum
	for i := len(arcs) - 1; i >= 0; i-- { // back to front, so each group fills down to its first slot
		id := end(arcs[i])
		adj.start[id]--
		adj.arcs[adj.start[id]] = arcs[i]
	}
	return adj
}

// OutArcs returns the dependences whose source is in.
func (g *Graph) OutArcs(in *ir.Instr) []*Arc { return g.out.of(in.ID) }

// InArcs returns the dependences whose target is in.
func (g *Graph) InArcs(in *ir.Instr) []*Arc { return g.in.of(in.ID) }

// NumArcs returns the number of dependence arcs.
func (g *Graph) NumArcs() int { return len(g.Arcs) }
