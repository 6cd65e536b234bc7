// Package mtcg implements Multi-Threaded Code Generation: Algorithm 1 of
// the paper (originally from the DSWP paper [16]). Given any partition of a
// function's instructions into threads, it produces one control-flow graph
// per thread with produce/consume instructions satisfying every inter-thread
// dependence.
//
// The implementation is factored the way Section 3.2 suggests: a
// *communication plan* (which dependences to communicate, where, and which
// branches each thread must replicate) is materialized by a single code
// generator. NaivePlan reproduces the original MTCG placement —
// communication at the point of each dependence's source instruction —
// while package coco computes optimized plans consumed by the same
// generator.
package mtcg

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/pdg"
)

// Point is a program point in the original CFG: immediately before
// Block.Instrs[Index]. Index 0 is the block entry; the largest valid index
// is the terminator's (a point just before the terminator). Critical edges
// must have been split so that every CFG edge maps to a unique point.
type Point struct {
	Block *ir.Block
	Index int
}

// String renders the point for diagnostics.
func (p Point) String() string { return fmt.Sprintf("%s[%d]", p.Block.Name, p.Index) }

// Comm describes the communication of one dependence (one register, or the
// merged memory synchronization) from thread Src to thread Dst, placed at
// the given set of points — a cut of the register's (or memory's) flow
// graph. The Points of a single Comm share one queue.
type Comm struct {
	Kind pdg.Kind // KindReg or KindMem
	Reg  ir.Reg   // register carried (KindReg only)
	Src  int      // producing thread
	Dst  int      // consuming thread
	// Points are the placement points; the produce is inserted at each
	// point in CFG_Src and the matching consume at the same point in
	// CFG_Dst.
	Points []Point
	// Queue is the synchronization-array queue; assigned by Generate.
	Queue int
}

// String renders the communication for diagnostics.
func (c *Comm) String() string {
	what := "mem"
	if c.Kind == pdg.KindReg {
		what = c.Reg.String()
	}
	return fmt.Sprintf("comm %s T%d->T%d at %v", what, c.Src, c.Dst, c.Points)
}

// Plan is everything Generate needs: the partition, the communications with
// their placements, and the per-thread relevant branches (Definition 1) to
// replicate.
type Plan struct {
	F          *ir.Function
	Assign     map[*ir.Instr]int
	NumThreads int
	Comms      []*Comm
	// Relevant[t][b] reports whether thread t must contain (own or
	// duplicate) the branch terminating block ID b.
	Relevant [][]bool
	// Iterations is how many passes of Algorithm 2's repeat-until loop
	// produced the plan; a NaivePlan, which runs none, has 0.
	Iterations int
	// PostDom is F's post-dominator tree, which places each thread's
	// blocks. Plans built from a pdg.Graph carry the graph's; Generate
	// computes one for a plan without it.
	PostDom *analysis.DomTree
}

// assignable reports whether an instruction takes part in partitioning.
// Unconditional jumps and nops are structural; thread CFGs rebuild their own
// terminators.
func assignable(in *ir.Instr) bool { return in.Op != ir.Jump && in.Op != ir.Nop }

// threadTable returns assign indexed by instruction ID. An instruction
// assign leaves out reads thread 0, as a read of the map does.
func threadTable(f *ir.Function, assign map[*ir.Instr]int) []int {
	thread := make([]int, f.NumInstrIDs())
	f.Instrs(func(in *ir.Instr) { thread[in.ID] = assign[in] })
	return thread
}

// NaivePlan builds the communication plan of the original MTCG algorithm
// (Algorithm 1): every inter-thread dependence is communicated at the point
// of its source instruction, each (value, source, target) on its own queue,
// and every transitive control dependence is implemented by replicating the
// branch and communicating its operand immediately before it.
func NaivePlan(f *ir.Function, g *pdg.Graph, assign map[*ir.Instr]int, numThreads int) *Plan {
	closure := g.CDG.Closures()
	p := &Plan{F: f, Assign: assign, NumThreads: numThreads, PostDom: g.PostDom}
	thread := threadTable(f, assign)
	// after[id] is the point just after instruction id.
	after := make([]Point, f.NumInstrIDs())
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			after[in.ID] = Point{Block: b, Index: i + 1}
		}
	}

	// Seed relevant branches: branches assigned to t, and branches
	// controlling an instruction assigned to t.
	seeds := make([][]bool, numThreads)
	for t := range seeds {
		seeds[t] = make([]bool, len(f.Blocks))
	}
	f.Instrs(func(in *ir.Instr) {
		if !assignable(in) {
			return
		}
		t := thread[in.ID]
		if in.Op == ir.Br {
			seeds[t][in.Block().ID] = true
		}
		for _, a := range g.InArcs(in) {
			if a.Kind == pdg.KindControl {
				seeds[t][a.From.Block().ID] = true
			}
		}
	})

	// Data and memory communications at source points; their consume
	// points make the controlling branches relevant to the target thread
	// (the transitive control dependences of Section 2.1).
	type key struct {
		kind     pdg.Kind
		reg      ir.Reg
		src, dst int
	}
	comms := map[key]*Comm{}
	addPoint := func(k key, pt Point) {
		c := comms[k]
		if c == nil {
			c = &Comm{Kind: k.kind, Reg: k.reg, Src: k.src, Dst: k.dst}
			comms[k] = c
			p.Comms = append(p.Comms, c)
		}
		for _, q := range c.Points {
			if q == pt {
				return
			}
		}
		c.Points = append(c.Points, pt)
	}
	for _, a := range g.Arcs {
		ts, td := thread[a.From.ID], thread[a.To.ID]
		if ts == td || !assignable(a.From) || !assignable(a.To) {
			continue
		}
		switch a.Kind {
		case pdg.KindReg:
			addPoint(key{pdg.KindReg, a.Reg, ts, td}, after[a.From.ID])
			for _, id := range closure[a.From.Block().ID] {
				seeds[td][id] = true
			}
		case pdg.KindMem:
			addPoint(key{pdg.KindMem, ir.NoReg, ts, td}, after[a.From.ID])
			for _, id := range closure[a.From.Block().ID] {
				seeds[td][id] = true
			}
		case pdg.KindControl:
			// The branch becomes relevant to the target thread; its
			// block's own controllers follow via the closure below.
			seeds[td][a.From.Block().ID] = true
		}
	}

	// A thread's relevant branches are its seeds and every branch
	// controlling one. A closure is transitive, so a branch it marks adds
	// nothing when the loop reaches it as a seed.
	for _, rel := range seeds {
		for b := range rel {
			if rel[b] {
				for _, id := range closure[b] {
					rel[id] = true
				}
			}
		}
	}
	p.Relevant = seeds

	// Operand communication for every branch a thread replicates but does
	// not own: the duplicated branch's operand is a register use in that
	// thread, so — exactly as for ordinary register dependences — each
	// reaching definition in another thread is communicated right after
	// the definition. (Communicating from the branch's home thread, as
	// the literal Algorithm 1 does, is unsafe when the home thread itself
	// receives the operand at the branch: the produce would forward a
	// stale value.) Live-in pseudo-definitions need no communication
	// because every thread starts with the region's live-ins.
	// Iterate to a fixpoint: each consume point makes the branches
	// controlling it relevant to the target thread, and newly relevant
	// branches need their own operand communication.
	for changed := true; changed; {
		changed = false
		for _, uc := range g.Chains {
			if uc.Use.Op != ir.Br {
				continue
			}
			br := uc.Use
			for t := 0; t < numThreads; t++ {
				if !p.Relevant[t][br.Block().ID] || thread[br.ID] == t {
					continue
				}
				for _, def := range uc.Defs {
					if def == nil || thread[def.ID] == t {
						continue
					}
					addPoint(key{pdg.KindReg, uc.Reg, thread[def.ID], t}, after[def.ID])
					for _, id := range closure[def.Block().ID] {
						if !p.Relevant[t][id] {
							p.Relevant[t][id] = true
							changed = true
						}
					}
				}
			}
		}
	}
	sortComms(p.Comms)
	return p
}

// sortComms orders communications deterministically (registers before the
// memory merge, then by register, source, destination) so queue numbering
// is reproducible.
func sortComms(cs []*Comm) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Reg != b.Reg {
			return a.Reg < b.Reg
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}
