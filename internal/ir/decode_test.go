package ir

import (
	"testing"
	"unsafe"
)

// everyOpFunction builds a verifiable function that contains every opcode
// of the table at least once: a body block with one instruction per
// non-terminator opcode (distinct registers, immediates and queues, so a
// swapped field shows), closed by a Br to two blocks, one reaching the Ret
// through a Jump.
func everyOpFunction(t *testing.T) *Function {
	t.Helper()
	f := NewFunction("every-op")
	f.NumQueues = 4
	body, left, right, exit := f.NewBlock("body"), f.NewBlock("left"), f.NewBlock("right"), f.NewBlock("exit")
	a, b := f.NewReg(), f.NewReg()
	f.Params = []Reg{a, b}
	for op := Nop; op < numOps; op++ {
		if op.IsTerminator() {
			continue
		}
		dst := NoReg
		if op.HasDst() {
			dst = f.NewReg()
		}
		in := f.NewInstr(op, dst, []Reg{a, b}[:op.NumSrcs()]...)
		in.Imm = 1000 + int64(op)
		if op.IsComm() {
			in.Queue = int(op) % f.NumQueues
		}
		body.Append(in)
	}
	body.Append(f.NewInstr(Br, NoReg, b))
	body.SetSuccs(left, right)
	left.Append(f.NewInstr(Jump, NoReg))
	left.SetSuccs(exit)
	right.Append(f.NewInstr(Nop, NoReg))
	right.Append(f.NewInstr(Jump, NoReg))
	right.SetSuccs(exit)
	exit.Append(f.NewInstr(Ret, NoReg, a, b, a, b))
	if err := f.Verify(); err != nil {
		t.Fatalf("fixture does not verify: %v", err)
	}
	return f
}

// TestDecodeRoundTrip: the stream carries every instruction of the function
// once, in block order, with each field where the executors read it; a Br's
// and a Jump's targets are the pcs of their successors' first instructions;
// and the record stays at the 32 bytes (two to a cache line) both hot loops
// are sized around.
func TestDecodeRoundTrip(t *testing.T) {
	if got := unsafe.Sizeof(Decoded{}); got != 32 {
		t.Errorf("Decoded is %d bytes, want 32", got)
	}
	f := everyOpFunction(t)
	var s Stream
	s.Decode(f)
	if len(s.Code) != f.NumInstrs() || len(s.Instrs) != len(s.Code) {
		t.Fatalf("stream holds %d records and %d instructions for a function of %d", len(s.Code), len(s.Instrs), f.NumInstrs())
	}
	start := map[*Block]int{}
	seen := map[Op]bool{}
	pc := 0
	for _, b := range f.Blocks {
		start[b] = pc
		pc += len(b.Instrs)
	}
	pc = 0
	f.Instrs(func(in *Instr) {
		d := s.Code[pc]
		if s.Instrs[pc] != in {
			t.Fatalf("pc %d: stream has %v, block order has %v", pc, s.Instrs[pc], in)
		}
		seen[d.Op] = true
		if d.Op != in.Op || d.Imm != in.Imm || int(d.ID) != in.ID || int(d.Queue) != in.Queue || d.Tag != 0 {
			t.Errorf("pc %d (%v): decoded to %+v", pc, in, d)
		}
		if want := min(len(in.Srcs), 3); int(d.NSrc) != want {
			t.Errorf("pc %d (%v): NSrc = %d, want %d", pc, in, d.NSrc, want)
		}
		if len(in.Srcs) > 0 && Reg(d.S0) != in.Srcs[0] {
			t.Errorf("pc %d (%v): S0 = r%d", pc, in, d.S0)
		}
		blk := in.Block()
		switch in.Op {
		case Br:
			if d.Taken() != start[blk.Succs[0]] || d.Fall() != start[blk.Succs[1]] {
				t.Errorf("pc %d (%v): targets %d/%d, want %d/%d", pc, in,
					d.Taken(), d.Fall(), start[blk.Succs[0]], start[blk.Succs[1]])
			}
		case Jump:
			if d.Taken() != start[blk.Succs[0]] {
				t.Errorf("pc %d (%v): target %d, want %d", pc, in, d.Taken(), start[blk.Succs[0]])
			}
		default:
			if Reg(d.Dst) != in.Dst {
				t.Errorf("pc %d (%v): Dst = r%d", pc, in, d.Dst)
			}
			if len(in.Srcs) > 1 && Reg(d.S1) != in.Srcs[1] {
				t.Errorf("pc %d (%v): S1 = r%d", pc, in, d.S1)
			}
		}
		pc++
	})
	for op := Nop; op < numOps; op++ {
		if !seen[op] {
			t.Errorf("opcode %v never reached the stream", op)
		}
	}
	if start[f.Entry()] != 0 {
		t.Errorf("entry block starts at pc %d, want 0", start[f.Entry()])
	}
}

// TestDecodeTrapsUnsoundFunction: Decode takes any function, as walking the
// blocks does, and costs a sound one nothing — but where a walk would index
// out of range on arrival (the end of an unterminated block, a missing or
// foreign successor) the stream holds a jump to itself, so an executor that
// gets there spins into its budget instead of running on into the next
// block's code.
func TestDecodeTrapsUnsoundFunction(t *testing.T) {
	other := NewFunction("other")
	foreign := other.NewBlock("elsewhere")

	f := NewFunction("unsound")
	entry, open, stray, short := f.NewBlock("entry"), f.NewBlock("open"), f.NewBlock("stray"), f.NewBlock("short")
	entry.Append(f.NewInstr(Ret, NoReg))
	open.Append(f.NewInstr(Nop, NoReg)) // no terminator
	stray.Append(f.NewInstr(Jump, NoReg))
	stray.Succs = []*Block{foreign}
	short.Append(f.NewInstr(Br, NoReg, f.NewReg()))
	short.Succs = []*Block{entry} // one successor short

	var s Stream
	s.Decode(f)
	if want := f.NumInstrs() + 1; len(s.Code) != want {
		t.Fatalf("%d records, want %d (one added to close the open block)", len(s.Code), want)
	}
	// Layout: 0 ret | 1 nop, 2 (added) | 3 jump | 4 br.
	if d := s.Code[2]; d.Op != Jump || d.Taken() != 2 || s.Instrs[2] != nil {
		t.Errorf("open block is closed by %+v (from %v), want a Jump to pc 2 of its own", d, s.Instrs[2])
	}
	if d := s.Code[3]; d.Op != Jump || d.Taken() != 3 {
		t.Errorf("jump to a block of another function decoded to %+v, want target 3 (itself)", d)
	}
	if d := s.Code[4]; d.Op != Br || d.Taken() != 0 || d.Fall() != 4 {
		t.Errorf("br with one successor decoded to %+v, want taken 0 and fallthrough 4 (itself)", d)
	}
}
