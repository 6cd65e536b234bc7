package mtcg

import (
	"fmt"
	"slices"
	"strconv"

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
	blk, idx int // the point: block ID and position in the block
	comm     *Comm
	produce  bool
}

// Generate materializes a communication plan into per-thread functions
// (steps 1, 2 and 4 of Algorithm 1, with step 3's communication placement
// taken from the plan). It returns an error if the plan is inconsistent —
// most importantly if an irrelevant branch would have to decide between two
// different relevant successors, which indicates a broken relevant-branch
// closure — or if a branch leads to a block that cannot reach the exit,
// which has no relevant block after it.
func Generate(p *Plan) (*Program, error) {
	f := p.F
	pdomTree := p.PostDom
	if pdomTree == nil {
		var err error
		if pdomTree, err = analysis.PostDominators(f); err != nil {
			return nil, fmt.Errorf("mtcg: %w", err)
		}
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
		Threads:    make([]*ir.Function, 0, p.NumThreads),
		Origins:    make([][]*ir.Block, 0, p.NumThreads),
	}

	thread := threadTable(f, p.Assign)
	for t := 0; t < p.NumThreads; t++ {
		ft, origins, err := generateThread(p, t, thread, pdomTree, retBlock)
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
// original block each of its blocks copies, in block order. thread is the
// plan's assignment indexed by instruction ID.
func generateThread(p *Plan, t int, thread []int, pdomTree *analysis.DomTree, retBlock *ir.Block) (*ir.Function, []*ir.Block, error) {
	f := p.F

	// Communication points involving this thread, in program order, and
	// at each point in an order shared by producer and consumer threads:
	// produces first (cannot deadlock and are value-correct at any point
	// of their cut), then consumes, each by queue number.
	nEmits := 0
	for _, c := range p.Comms {
		if c.Src == t || c.Dst == t {
			nEmits += len(c.Points)
		}
	}
	emits := make([]commEmit, 0, nEmits)
	for _, c := range p.Comms {
		for _, pt := range c.Points {
			if c.Src == t {
				emits = append(emits, commEmit{pt.Block.ID, pt.Index, c, true})
			}
			if c.Dst == t {
				emits = append(emits, commEmit{pt.Block.ID, pt.Index, c, false})
			}
		}
	}
	slices.SortFunc(emits, func(a, b commEmit) int {
		if a.blk != b.blk {
			return a.blk - b.blk
		}
		if a.idx != b.idx {
			return a.idx - b.idx
		}
		if a.produce != b.produce {
			if a.produce {
				return -1
			}
			return 1
		}
		return a.comm.Queue - b.comm.Queue
	})

	// Relevant blocks: content, communication points, replicated
	// branches, entry and exit.
	relevant := append([]bool(nil), p.Relevant[t]...)
	relevant[f.Entry().ID] = true
	relevant[retBlock.ID] = true
	f.Instrs(func(in *ir.Instr) {
		if assignable(in) && thread[in.ID] == t && in.Op != ir.Ret {
			relevant[in.Block().ID] = true
		}
	})
	for _, e := range emits {
		relevant[e.blk] = true
	}

	ft := ir.NewFunction(f.Name + ".t" + strconv.Itoa(t))
	ft.Params = append([]ir.Reg(nil), f.Params...)
	ft.ReserveRegs(f.MaxReg())

	// nextRel maps each successor of an original block to the first
	// relevant block on every path from it: the nearest post-dominator in
	// the relevant set. A successor that cannot reach the exit has none.
	nextRel := func(b *ir.Block) (rel [2]*ir.Block, err error) {
		for i, s := range b.Succs {
			pdomTree.WalkUp(s, func(x *ir.Block) bool {
				if relevant[x.ID] {
					rel[i] = x
					return false
				}
				return true
			})
			if rel[i] == nil {
				return rel, fmt.Errorf("mtcg: %s thread %d: block %s cannot reach the exit", f.Name, t, s.Name)
			}
		}
		return rel, nil
	}

	// The thread's blocks, instructions, instruction lists and operand
	// lists are each cut from one allocation, sized by a first walk over
	// the relevant blocks: per block at most its communications, the
	// instructions it keeps and a terminator. Lists are capacity-capped,
	// so an append to one copies it.
	var order []*ir.Block
	nInstrs, nRegs := 0, 0
	size := make([]int, len(f.Blocks))
	next := 0
	for _, b := range f.Blocks {
		if !relevant[b.ID] {
			continue // nor has it a communication point
		}
		for ; next < len(emits) && emits[next].blk == b.ID; next++ {
			size[b.ID]++
			if e := emits[next]; e.comm.Kind == pdg.KindReg && e.produce {
				nRegs++
			}
		}
		order = append(order, b)
		size[b.ID]++ // the terminator
		for _, in := range b.Instrs {
			if in.IsTerminator() {
				nRegs += len(in.Srcs)
			} else if assignable(in) && thread[in.ID] == t {
				size[b.ID]++
				nRegs += len(in.Srcs)
			}
		}
		nInstrs += size[b.ID]
	}
	ft.Reserve(len(order), nInstrs)
	body := make([]*ir.Instr, nInstrs)
	regs := make([]ir.Reg, 0, nRegs)
	operands := func(rs ...ir.Reg) []ir.Reg {
		if len(rs) == 0 {
			return nil
		}
		start := len(regs)
		regs = append(regs, rs...)
		return regs[start:len(regs):len(regs)]
	}

	// Create the blocks in original layout order.
	copies := make([]*ir.Block, len(f.Blocks))
	for _, b := range order {
		nb := ft.NewBlock(b.Name)
		nb.Instrs, body = body[:0:size[b.ID]], body[size[b.ID]:]
		copies[b.ID] = nb
	}

	type pendingEdge struct {
		from    *ir.Block
		targets [2]*ir.Block // original targets
		n       int          // targets in use: 1 for a jump, 2 for a br
	}
	edges := make([]pendingEdge, 0, len(order))

	// Blocks are created in ID order, so one cursor walks the sorted
	// emits; a point past its block's terminator is never reached.
	next = 0
	for _, b := range order {
		nb := copies[b.ID]
		emitComms := func(idx int) {
			for ; next < len(emits) && emits[next].blk == b.ID && emits[next].idx <= idx; next++ {
				e := emits[next]
				if e.idx < idx {
					continue
				}
				var in *ir.Instr
				switch {
				case e.comm.Kind == pdg.KindReg && e.produce:
					in = ft.NewInstr(ir.Produce, ir.NoReg, operands(e.comm.Reg)...)
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
			if assignable(in) && thread[in.ID] == t {
				cp := ft.NewInstr(in.Op, in.Dst, operands(in.Srcs...)...)
				cp.Imm = in.Imm
				cp.Orig = in
				nb.Append(cp)
			}
		}
		for next < len(emits) && emits[next].blk == b.ID {
			next++
		}

		term := b.Terminator()
		switch term.Op {
		case ir.Ret:
			var ret *ir.Instr
			if thread[term.ID] == t {
				ret = ft.NewInstr(ir.Ret, ir.NoReg, operands(term.Srcs...)...)
				ret.Orig = term
			} else {
				ret = ft.NewInstr(ir.Ret, ir.NoReg)
			}
			nb.Append(ret)
		case ir.Br:
			rel, err := nextRel(b)
			if err != nil {
				return nil, nil, err
			}
			if p.Relevant[t][b.ID] || thread[term.ID] == t {
				br := ft.NewInstr(ir.Br, ir.NoReg, operands(term.Srcs[0])...)
				br.Orig = term
				nb.Append(br)
				edges = append(edges, pendingEdge{nb, rel, 2})
			} else {
				if rel[0] != rel[1] {
					return nil, nil, fmt.Errorf(
						"mtcg: %s thread %d: irrelevant branch in %s separates relevant blocks %s and %s",
						f.Name, t, b.Name, rel[0].Name, rel[1].Name)
				}
				nb.Append(ft.NewInstr(ir.Jump, ir.NoReg))
				edges = append(edges, pendingEdge{nb, rel, 1})
			}
		case ir.Jump:
			rel, err := nextRel(b)
			if err != nil {
				return nil, nil, err
			}
			nb.Append(ft.NewInstr(ir.Jump, ir.NoReg))
			edges = append(edges, pendingEdge{nb, rel, 1})
		}
	}

	for _, e := range edges {
		var succs [2]*ir.Block
		for i, orig := range e.targets[:e.n] {
			succs[i] = copies[orig.ID]
		}
		e.from.SetSuccs(succs[:e.n]...)
	}
	return ft, order, nil
}
