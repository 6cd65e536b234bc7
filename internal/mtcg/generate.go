package mtcg

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/pdg"
)

// Program is the result of multi-threaded code generation: one function per
// thread, communicating over NumQueues synchronization-array queues.
type Program struct {
	Orig       *ir.Function
	Threads    []*ir.Function
	NumQueues  int
	Comms      []*Comm
	Assign     map[*ir.Instr]int
	NumThreads int
	// Origins[t][i] is the block of Orig that thread t's block i copies.
	// A program not built by Generate (a hand-written or mutated one)
	// has none.
	Origins [][]*ir.Block
}

// commEmit is one produce or consume to materialize at a point.
type commEmit struct {
	comm    *Comm
	produce bool
}

// Generate materializes a communication plan into per-thread functions
// (steps 1, 2 and 4 of Algorithm 1, with step 3's communication placement
// taken from the plan). It returns an error if the plan is inconsistent —
// most importantly if an irrelevant branch would have to decide between two
// different relevant successors, which indicates a broken relevant-branch
// closure.
func Generate(p *Plan) (*Program, error) {
	f := p.F
	pdomTree, err := analysis.PostDominators(f)
	if err != nil {
		return nil, fmt.Errorf("mtcg: %w", err)
	}
	retBlock := f.RetInstr().Block()

	// Assign queues: one per communication.
	for i, c := range p.Comms {
		c.Queue = i
		if c.Src == c.Dst {
			return nil, fmt.Errorf("mtcg: %v communicates within one thread", c)
		}
		if len(c.Points) == 0 {
			return nil, fmt.Errorf("mtcg: %v has no placement points", c)
		}
	}

	prog := &Program{
		Orig:       f,
		NumQueues:  len(p.Comms),
		Comms:      p.Comms,
		Assign:     p.Assign,
		NumThreads: p.NumThreads,
	}

	for t := 0; t < p.NumThreads; t++ {
		ft, origins, err := generateThread(p, t, pdomTree, retBlock)
		if err != nil {
			return nil, err
		}
		ft.NumQueues = len(p.Comms)
		prog.Threads = append(prog.Threads, ft)
		prog.Origins = append(prog.Origins, origins)
	}
	return prog, nil
}

// generateThread builds thread t's function and returns with it the
// original block each of its blocks copies, in block order.
func generateThread(p *Plan, t int, pdomTree *analysis.DomTree, retBlock *ir.Block) (*ir.Function, []*ir.Block, error) {
	f := p.F

	// Communication points involving this thread, grouped by point.
	emits := map[Point][]commEmit{}
	for _, c := range p.Comms {
		for _, pt := range c.Points {
			if c.Src == t {
				emits[pt] = append(emits[pt], commEmit{c, true})
			}
			if c.Dst == t {
				emits[pt] = append(emits[pt], commEmit{c, false})
			}
		}
	}
	// Deterministic per-point order shared by producer and consumer
	// threads: produces first (cannot deadlock and are value-correct at
	// any point of their cut), then consumes, each by queue number.
	for _, es := range emits {
		sort.Slice(es, func(i, j int) bool {
			if es[i].produce != es[j].produce {
				return es[i].produce
			}
			return es[i].comm.Queue < es[j].comm.Queue
		})
	}

	// Relevant blocks: content, communication points, replicated
	// branches, entry and exit.
	relevant := map[int]bool{
		f.Entry().ID: true,
		retBlock.ID:  true,
	}
	f.Instrs(func(in *ir.Instr) {
		if assignable(in) && p.Assign[in] == t && in.Op != ir.Ret {
			relevant[in.Block().ID] = true
		}
	})
	for pt := range emits {
		relevant[pt.Block.ID] = true
	}
	for id := range p.Relevant[t] {
		relevant[id] = true
	}

	ft := ir.NewFunction(fmt.Sprintf("%s.t%d", f.Name, t))
	ft.Params = append([]ir.Reg(nil), f.Params...)
	ft.ReserveRegs(f.MaxReg())

	// nextRel maps an original block to the first relevant block on every
	// path from it: the nearest post-dominator in the relevant set.
	nextRel := func(b *ir.Block) *ir.Block {
		var found *ir.Block
		pdomTree.WalkUp(b, func(x *ir.Block) bool {
			if relevant[x.ID] {
				found = x
				return false
			}
			return true
		})
		return found
	}

	// Create the blocks in original layout order.
	copies := map[int]*ir.Block{}
	var order []*ir.Block
	for _, b := range f.Blocks {
		if relevant[b.ID] {
			copies[b.ID] = ft.NewBlock(b.Name)
			order = append(order, b)
		}
	}

	type pendingEdge struct {
		from    *ir.Block
		targets []*ir.Block // original targets
	}
	var edges []pendingEdge

	for _, b := range order {
		nb := copies[b.ID]
		emitComms := func(idx int) {
			for _, e := range emits[Point{Block: b, Index: idx}] {
				var in *ir.Instr
				switch {
				case e.comm.Kind == pdg.KindReg && e.produce:
					in = ft.NewInstr(ir.Produce, ir.NoReg, e.comm.Reg)
				case e.comm.Kind == pdg.KindReg:
					in = ft.NewInstr(ir.Consume, e.comm.Reg)
				case e.produce:
					in = ft.NewInstr(ir.ProduceSync, ir.NoReg)
				default:
					in = ft.NewInstr(ir.ConsumeSync, ir.NoReg)
				}
				in.Queue = e.comm.Queue
				nb.Append(in)
			}
		}
		for i, in := range b.Instrs {
			emitComms(i)
			if in.IsTerminator() {
				break
			}
			if assignable(in) && p.Assign[in] == t {
				cp := ft.NewInstr(in.Op, in.Dst, append([]ir.Reg(nil), in.Srcs...)...)
				cp.Imm = in.Imm
				cp.Orig = in
				nb.Append(cp)
			}
		}

		term := b.Terminator()
		switch term.Op {
		case ir.Ret:
			var ret *ir.Instr
			if p.Assign[term] == t {
				ret = ft.NewInstr(ir.Ret, ir.NoReg, append([]ir.Reg(nil), term.Srcs...)...)
				ret.Orig = term
			} else {
				ret = ft.NewInstr(ir.Ret, ir.NoReg)
			}
			nb.Append(ret)
		case ir.Br:
			if p.Relevant[t][b.ID] || p.Assign[term] == t {
				br := ft.NewInstr(ir.Br, ir.NoReg, term.Srcs[0])
				br.Orig = term
				nb.Append(br)
				t0, t1 := nextRel(b.Succs[0]), nextRel(b.Succs[1])
				edges = append(edges, pendingEdge{nb, []*ir.Block{t0, t1}})
			} else {
				t0, t1 := nextRel(b.Succs[0]), nextRel(b.Succs[1])
				if t0 != t1 {
					return nil, nil, fmt.Errorf(
						"mtcg: %s thread %d: irrelevant branch in %s separates relevant blocks %s and %s",
						f.Name, t, b.Name, t0.Name, t1.Name)
				}
				nb.Append(ft.NewInstr(ir.Jump, ir.NoReg))
				edges = append(edges, pendingEdge{nb, []*ir.Block{t0}})
			}
		case ir.Jump:
			nb.Append(ft.NewInstr(ir.Jump, ir.NoReg))
			edges = append(edges, pendingEdge{nb, []*ir.Block{nextRel(b.Succs[0])}})
		}
	}

	for _, e := range edges {
		var succs []*ir.Block
		for _, orig := range e.targets {
			succs = append(succs, copies[orig.ID])
		}
		e.from.SetSuccs(succs...)
	}
	return ft, order, nil
}
