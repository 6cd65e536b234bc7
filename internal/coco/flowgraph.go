// Package coco implements the COmpiler Communication Optimization framework
// (Section 3 of the paper): thread-aware data-flow analyses combined with
// graph min-cut to place the communication and synchronization instructions
// that MTCG inserts, minimizing their dynamic count.
package coco

import (
	"fmt"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/mincut"
	"repro/internal/mtcg"
)

// flowGraph is the G_f of Sections 3.1.1–3.1.3: nodes are the original
// instructions plus one entry node per basic block, plus the special source
// S and sink T; arcs are control flow at instruction granularity, each
// corresponding to one program point where communication may be placed.
//
// The topology is a property of the function, so a plan builds it once.
// Every cut then prices the same arcs (planner.price) and, for a register,
// hangs that register's definitions and uses off S and T; the next cut
// drops those terminal arcs again.
type flowGraph struct {
	fn   *ir.Function
	g    *mincut.Graph
	s, t int
	// points[k] is the program point of arc k; terminal arcs come after.
	points []flowPoint
	// instrNode maps instruction IDs to node indices.
	instrNode []int
}

// flowPoint is one place where communication may go.
type flowPoint struct {
	pt mtcg.Point
	// pos is the point's position in the planner's per-point live and
	// safe tables.
	pos int
	// weight is how often the profile says execution passes the point.
	weight int64
}

// costScale leaves room below one profile-count unit for tie-break
// penalties.
const costScale = 16

// newFlowGraph builds the arcs of f, all with capacity zero. It fails on a
// function whose critical edges were not split — a malformed input, not a
// planner bug — so callers can surface the bad function instead of
// crashing.
func newFlowGraph(f *ir.Function, prof *ir.Profile, tables *dataflow.PointSets) (*flowGraph, error) {
	nBlocks := len(f.Blocks)
	nInstrs := 0
	instrNode := make([]int, f.NumInstrIDs())
	for i := range instrNode {
		instrNode[i] = -1
	}
	f.Instrs(func(in *ir.Instr) {
		instrNode[in.ID] = nBlocks + nInstrs
		nInstrs++
	})
	// The network is allocated once, at its final size: an arc into every
	// instruction node and one per CFG edge from its block's last node,
	// counted here with their ends at every node, and room for the
	// terminal arcs of the largest cut. A register's cut hangs each of
	// its definitions off S and each instruction that reads it off T, so
	// an instruction node takes at most two terminal arcs.
	nodes := nBlocks + nInstrs + 2
	ends := make([]int, nodes)
	nPoints := 0
	for _, b := range f.Blocks {
		prev := b.ID
		for _, in := range b.Instrs {
			node := instrNode[in.ID]
			ends[prev]++
			ends[node] += 1 + 2 // the arc into it, then room for a source and a sink
			prev = node
		}
		for _, s := range b.Succs {
			ends[prev]++
			ends[s.ID]++
		}
		nPoints += len(b.Instrs) + len(b.Succs)
	}
	terms := maxDefsAndUses(f)
	ends[nodes-2], ends[nodes-1] = terms, terms
	fg := &flowGraph{
		fn:        f,
		g:         mincut.NewSized(ends, nPoints+terms),
		s:         nodes - 2,
		t:         nodes - 1,
		points:    make([]flowPoint, 0, nPoints),
		instrNode: instrNode,
	}
	addPoint := func(from, to int, pt mtcg.Point, weight int64) {
		fg.g.AddArc(from, to, 0)
		fg.points = append(fg.points, flowPoint{pt: pt, pos: tables.Pos(pt.Block, pt.Index), weight: weight})
	}
	for _, b := range f.Blocks {
		w := prof.BlockWeight(b)
		prev := b.ID // a block's entry node is its ID
		for i, in := range b.Instrs {
			node := instrNode[in.ID]
			addPoint(prev, node, mtcg.Point{Block: b, Index: i}, w)
			prev = node
		}
		// Cross-block arcs from the terminator to successor entries.
		// Critical edges are split, so each edge has a unique point:
		// before the terminator if the source has one successor,
		// otherwise at the target's entry.
		for _, s := range b.Succs {
			var pt mtcg.Point
			if len(b.Succs) == 1 {
				pt = mtcg.Point{Block: b, Index: len(b.Instrs) - 1}
			} else {
				if len(s.Preds) != 1 {
					return nil, fmt.Errorf("coco: critical edge %s->%s in %s not split",
						b.Name, s.Name, f.Name)
				}
				pt = mtcg.Point{Block: s, Index: 0}
			}
			addPoint(prev, s.ID, pt, prof.EdgeWeight(b, s))
		}
	}
	return fg, nil
}

// maxDefsAndUses returns the largest number, over f's registers, of
// instructions that define the register plus instructions that read it:
// the most terminal arcs one register cut adds.
func maxDefsAndUses(f *ir.Function) int {
	perReg := make([]int32, f.MaxReg()+1)
	count := func(r ir.Reg) {
		if int(r) < len(perReg) {
			perReg[r]++
		}
	}
	f.Instrs(func(in *ir.Instr) {
		if d := in.Defs(); d != ir.NoReg {
			count(d)
		}
		for i, r := range in.Srcs {
			if !slices.Contains(in.Srcs[:i], r) {
				count(r)
			}
		}
	})
	return int(slices.Max(perReg))
}

// addSource connects S to an instruction node with infinite capacity.
func (fg *flowGraph) addSource(in *ir.Instr) {
	fg.g.AddArc(fg.s, fg.instrNode[in.ID], mincut.Inf)
}

// addSink connects an instruction node to T with infinite capacity.
func (fg *flowGraph) addSink(in *ir.Instr) {
	fg.g.AddArc(fg.instrNode[in.ID], fg.t, mincut.Inf)
}

// cutPoints converts cut arcs back to program points, deduplicated in
// deterministic order. A cut containing a terminal arc means the min-cut
// solver returned an unusable cut; report it rather than crash
// mid-optimization.
func (fg *flowGraph) cutPoints(arcs []mincut.ArcID) ([]mtcg.Point, error) {
	var out []mtcg.Point
next:
	for _, id := range arcs {
		if int(id) >= len(fg.points) {
			return nil, fmt.Errorf("coco: cut in %s includes a special arc", fg.fn.Name)
		}
		// The point before a lone jump is both an arc inside the block
		// and the arc to its successor; a cut is a handful of points.
		pt := fg.points[id].pt
		for _, have := range out {
			if have == pt {
				continue next
			}
		}
		out = append(out, pt)
	}
	return out, nil
}
