package ir

import (
	"fmt"
	"slices"
)

// Verify checks the structural invariants of the function and returns the
// first violation found, or nil. The invariants are:
//
//   - Blocks is indexed by block ID and the entry block exists.
//   - Every block ends with exactly one terminator, and terminators appear
//     nowhere else.
//   - Successor counts match terminators (Br: 2, Jump: 1, Ret: 0).
//   - Pred/succ lists are mutually consistent.
//   - Instruction source counts match opcodes, and registers are allocated.
//   - Every instruction belongs to the block listing it, and IDs are unique
//     and inside the function's ID space (NumInstrIDs sizes the executors'
//     tables).
//   - Exactly one Ret exists and every block reaches it or is reachable
//     from entry (no dangling unreachable garbage is allowed in source
//     functions; thread functions are built reachable by construction).
func (f *Function) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	seenID := make([]uint64, (f.nextInst+63)/64) // one bit per ID: a request pays for this
	retCount := 0
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("%s: block %s has ID %d at index %d", f.Name, b.Name, b.ID, i)
		}
		if b.fn != f {
			return fmt.Errorf("%s: block %s has wrong owner", f.Name, b.Name)
		}
		t := b.Terminator()
		if t == nil {
			return fmt.Errorf("%s: block %s is unterminated", f.Name, b.Name)
		}
		for j, in := range b.Instrs {
			if in.blk != b {
				return fmt.Errorf("%s: instr %v in %s has wrong block link", f.Name, in, b.Name)
			}
			if in.ID < 0 || in.ID >= f.nextInst {
				return fmt.Errorf("%s: instr %v has ID %d outside [0, %d)", f.Name, in, in.ID, f.nextInst)
			}
			if seenID[in.ID/64]&(1<<(in.ID%64)) != 0 {
				return fmt.Errorf("%s: duplicate instr ID %d (%v)", f.Name, in.ID, in)
			}
			seenID[in.ID/64] |= 1 << (in.ID % 64)
			if in.IsTerminator() && j != len(b.Instrs)-1 {
				return fmt.Errorf("%s: terminator %v mid-block in %s", f.Name, in, b.Name)
			}
			if err := f.verifyInstr(in); err != nil {
				return fmt.Errorf("%s: block %s: %w", f.Name, b.Name, err)
			}
		}
		var wantSuccs int
		switch t.Op {
		case Br:
			wantSuccs = 2
		case Jump:
			wantSuccs = 1
		case Ret:
			wantSuccs = 0
			retCount++
		}
		if len(b.Succs) != wantSuccs {
			return fmt.Errorf("%s: block %s: %v with %d successors", f.Name, b.Name, t.Op, len(b.Succs))
		}
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				return fmt.Errorf("%s: edge %s->%s missing from pred list", f.Name, b.Name, s.Name)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				return fmt.Errorf("%s: pred %s of %s lacks succ edge", f.Name, p.Name, b.Name)
			}
		}
	}
	if retCount != 1 {
		return fmt.Errorf("%s: %d Ret instructions, want exactly 1", f.Name, retCount)
	}
	// Reachability from entry.
	reached := make([]bool, len(f.Blocks))
	stack := make([]*Block, 1, len(f.Blocks))
	stack[0] = f.Entry()
	reached[f.Entry().ID] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reached[s.ID] {
				reached[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	for _, b := range f.Blocks {
		if !reached[b.ID] {
			return fmt.Errorf("%s: block %s unreachable from entry", f.Name, b.Name)
		}
	}
	return nil
}

func (f *Function) verifyInstr(in *Instr) error {
	if n := in.Op.NumSrcs(); n >= 0 && len(in.Srcs) != n {
		return fmt.Errorf("%v: %d sources, want %d", in, len(in.Srcs), n)
	}
	if in.Op.HasDst() {
		if in.Dst == NoReg || in.Dst > f.MaxReg() {
			return fmt.Errorf("%v: bad destination register", in)
		}
	} else if in.Dst != NoReg {
		return fmt.Errorf("%v: unexpected destination register", in)
	}
	for _, s := range in.Srcs {
		if s == NoReg || s > f.MaxReg() {
			return fmt.Errorf("%v: bad source register %v", in, s)
		}
	}
	if in.Op.IsComm() {
		if in.Queue < 0 {
			return fmt.Errorf("%v: communication without queue", in)
		}
		if in.Queue >= f.NumQueues {
			return fmt.Errorf("%v: queue %d out of range (%d queues)", in, in.Queue, f.NumQueues)
		}
	} else if in.Queue != NoQueue {
		return fmt.Errorf("%v: non-communication instruction with queue", in)
	}
	return nil
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// SameCode reports whether f and g are the same code to an executor: the
// same parameters, queue count and register and instruction-ID spaces, the
// same blocks in the same order with the same successors, and in every
// block the same instructions field by field — ID, Op, Dst, Srcs, Imm,
// Queue, and the Orig an instruction was copied from. Function and block
// names are not compared; they reach error text only. Two functions that
// are the same code run identically on any input and machine, so one
// measurement serves both. SameCode allocates nothing and returns at the
// first difference.
func (f *Function) SameCode(g *Function) bool {
	if f == g {
		return true
	}
	if f.NumQueues != g.NumQueues || f.nextReg != g.nextReg || f.nextInst != g.nextInst ||
		len(f.Blocks) != len(g.Blocks) || !slices.Equal(f.Params, g.Params) {
		return false
	}
	for i, b := range f.Blocks {
		c := g.Blocks[i]
		if len(b.Instrs) != len(c.Instrs) || len(b.Succs) != len(c.Succs) {
			return false
		}
		for j, s := range b.Succs {
			if s.ID != c.Succs[j].ID {
				return false
			}
		}
		for j, in := range b.Instrs {
			o := c.Instrs[j]
			if in.ID != o.ID || in.Op != o.Op || in.Dst != o.Dst || in.Imm != o.Imm ||
				in.Queue != o.Queue || in.Orig != o.Orig || !slices.Equal(in.Srcs, o.Srcs) {
				return false
			}
		}
	}
	return true
}
