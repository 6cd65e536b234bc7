package dataflow

import "repro/internal/ir"

// Liveness holds per-block live-in/live-out register sets. The analysis is
// parameterized by a "use" function so the same machinery serves both
// classic liveness (all uses) and the paper's thread-aware variant — the
// live range of a register "considering only the uses of r in the
// instructions assigned to T_t" (Section 3.1.1), optionally extended with
// the operand uses of branches relevant to T_t.
type Liveness struct {
	fn      *ir.Function
	uses    func(*ir.Instr) []ir.Reg
	liveIn  []RegSet // block ID -> live before first instruction
	liveOut []RegSet // block ID -> live after terminator
}

// AllUses is the use function for classic liveness: every source register of
// every instruction counts as a use.
func AllUses(in *ir.Instr) []ir.Reg { return in.Uses() }

// ComputeLiveness runs the backward may analysis. uses selects which source
// registers of each instruction count as uses (defs always kill).
func ComputeLiveness(f *ir.Function, uses func(*ir.Instr) []ir.Reg) *Liveness {
	l := &Liveness{fn: f, uses: uses}
	n := len(f.Blocks)
	max := f.MaxReg()
	sets := newRegSets(2*n+1, max)
	l.liveIn, l.liveOut = sets[:n], sets[n:2*n]
	in := sets[2*n] // scratch: the block being transferred
	// Iterate in postorder (reverse of RPO) until stable.
	// Worklist over blocks keeps it near-linear for reducible CFGs.
	order := reversed(rpo(f))
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			out := l.liveOut[b.ID]
			for _, s := range b.Succs {
				if out.UnionWith(l.liveIn[s.ID]) {
					changed = true
				}
			}
			in.CopyFrom(out)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				l.transfer(b.Instrs[i], in)
			}
			if !in.Equal(l.liveIn[b.ID]) {
				l.liveIn[b.ID].CopyFrom(in)
				changed = true
			}
		}
	}
	return l
}

// transfer applies one instruction's backward transfer to the live set.
func (l *Liveness) transfer(in *ir.Instr, live RegSet) {
	if d := in.Defs(); d != ir.NoReg {
		live.Remove(d)
	}
	for _, r := range l.uses(in) {
		live.Add(r)
	}
}

// LiveIn returns the registers live before the first instruction of b.
func (l *Liveness) LiveIn(b *ir.Block) RegSet { return l.liveIn[b.ID] }

// LiveOut returns the registers live after the terminator of b.
func (l *Liveness) LiveOut(b *ir.Block) RegSet { return l.liveOut[b.ID] }

// Points fills ps with the live-before set of every instruction position:
// position i of block b holds the set live immediately before b.Instrs[i],
// and position len(b.Instrs) the block's live-out.
func (l *Liveness) Points(ps *PointSets) {
	for _, b := range l.fn.Blocks {
		n := len(b.Instrs)
		cur := ps.At(ps.Pos(b, n))
		cur.CopyFrom(l.liveOut[b.ID])
		for i := n - 1; i >= 0; i-- {
			before := ps.At(ps.Pos(b, i))
			before.CopyFrom(cur)
			l.transfer(b.Instrs[i], before)
			cur = before
		}
	}
}

func rpo(f *ir.Function) []*ir.Block {
	seen := make([]bool, len(f.Blocks))
	var post []*ir.Block
	var dfs func(*ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

func reversed(bs []*ir.Block) []*ir.Block {
	out := make([]*ir.Block, len(bs))
	for i, b := range bs {
		out[len(bs)-1-i] = b
	}
	return out
}
