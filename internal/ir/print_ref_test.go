package ir_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/randprog"
	"repro/internal/workloads"
)

// The printer as it was while every byte went through fmt, kept as the
// reference: Function.String is the IR part of every workload
// fingerprint, so its bytes are the key format of every cache directory
// already on disk.

func refReg(r ir.Reg) string {
	if r == ir.NoReg {
		return "r?"
	}
	return fmt.Sprintf("r%d", int(r))
}

func refOp(op ir.Op) string {
	if op > ir.ConsumeSync {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return op.String() // the mnemonic table; Parse pins it
}

func refInstr(in *ir.Instr) string {
	var b strings.Builder
	blk := in.Block()
	switch in.Op {
	case ir.Const:
		fmt.Fprintf(&b, "%s = const %d", refReg(in.Dst), in.Imm)
	case ir.Load:
		fmt.Fprintf(&b, "%s = load [%s+%d]", refReg(in.Dst), refReg(in.Srcs[0]), in.Imm)
	case ir.Store:
		fmt.Fprintf(&b, "store [%s+%d] = %s", refReg(in.Srcs[1]), in.Imm, refReg(in.Srcs[0]))
	case ir.Br:
		fmt.Fprintf(&b, "br %s", refReg(in.Srcs[0]))
		if blk != nil && len(blk.Succs) == 2 {
			fmt.Fprintf(&b, " %s, %s", blk.Succs[0].Name, blk.Succs[1].Name)
		}
	case ir.Jump:
		b.WriteString("jump")
		if blk != nil && len(blk.Succs) == 1 {
			fmt.Fprintf(&b, " %s", blk.Succs[0].Name)
		}
	case ir.Ret:
		b.WriteString("ret")
		for i, s := range in.Srcs {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %s", refReg(s))
		}
	case ir.Produce:
		fmt.Fprintf(&b, "produce [q%d] = %s", in.Queue, refReg(in.Srcs[0]))
	case ir.Consume:
		fmt.Fprintf(&b, "%s = consume [q%d]", refReg(in.Dst), in.Queue)
	case ir.ProduceSync:
		fmt.Fprintf(&b, "produce.sync [q%d]", in.Queue)
	case ir.ConsumeSync:
		fmt.Fprintf(&b, "consume.sync [q%d]", in.Queue)
	default:
		if in.Op.HasDst() {
			fmt.Fprintf(&b, "%s = %s", refReg(in.Dst), refOp(in.Op))
		} else {
			b.WriteString(refOp(in.Op))
		}
		for i, s := range in.Srcs {
			if i == 0 {
				b.WriteString(" ")
			} else {
				b.WriteString(", ")
			}
			b.WriteString(refReg(s))
		}
	}
	return b.String()
}

func refFunction(f *ir.Function) string {
	label := map[int]string{}
	seen := map[string]bool{}
	for _, blk := range f.Blocks {
		name := blk.Name
		if seen[name] {
			name = fmt.Sprintf("%s.b%d", blk.Name, blk.ID)
		}
		seen[name] = true
		label[blk.ID] = name
	}

	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(refReg(p))
	}
	b.WriteString(")\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:", label[blk.ID])
		if len(blk.Preds) > 0 {
			b.WriteString("  ; preds:")
			names := make([]string, len(blk.Preds))
			for i, p := range blk.Preds {
				names[i] = label[p.ID]
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&b, " %s", n)
			}
		}
		b.WriteString("\n")
		for _, in := range blk.Instrs {
			switch {
			case in.Op == ir.Br && len(blk.Succs) == 2:
				fmt.Fprintf(&b, "\tbr %s %s, %s\n", refReg(in.Srcs[0]),
					label[blk.Succs[0].ID], label[blk.Succs[1].ID])
			case in.Op == ir.Jump && len(blk.Succs) == 1:
				fmt.Fprintf(&b, "\tjump %s\n", label[blk.Succs[0].ID])
			default:
				fmt.Fprintf(&b, "\t%s\n", refInstr(in))
			}
		}
	}
	return b.String()
}

// printerCorpus is every function TestPrinterMatchesFmtReference prints:
// the kernels, every thread MTCG generates for them, random programs of
// three sizes and the hand-built edge cases.
func printerCorpus(t *testing.T) map[string]*ir.Function {
	t.Helper()
	fns := map[string]*ir.Function{}
	ctx := context.Background()
	e := exp.NewEngine(exp.EngineOptions{Jobs: 1})
	for _, w := range workloads.All() {
		fns[w.Name] = w.F
		for _, part := range exp.Partitioners() {
			p, err := e.Pipeline(ctx, w, part)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, part.Name(), err)
			}
			for i, th := range p.Naive.Threads {
				fns[fmt.Sprintf("%s/%s/naive/t%d", w.Name, part.Name(), i)] = th
			}
			for i, th := range p.Coco.Threads {
				fns[fmt.Sprintf("%s/%s/coco/t%d", w.Name, part.Name(), i)] = th
			}
		}
	}
	for _, size := range []int{40, 160, 640} {
		for seed := int64(1); seed <= 8; seed++ {
			_, p := randprog.GenerateSized(seed*7919+int64(size), size)
			fns[fmt.Sprintf("randprog/%d/%d", size, seed)] = p.F
		}
	}
	fns["edge"] = edgeFunction()
	// Block IDs that are not positions: a label is looked up by ID, the
	// last block carrying an ID wins, and an ID no block carries is "".
	odd := edgeFunction()
	odd.Blocks[1].ID, odd.Blocks[2].ID, odd.Blocks[4].ID = 2, 1, 99
	odd.Blocks[3].ID = 0
	fns["edge/renumbered"] = odd
	return fns
}

// edgeFunction holds what no generator emits: the invalid register, an
// opcode past the table, repeated block names, negative immediates and
// offsets at the int64 limits, a ret with several live-outs, and
// communication on a high queue.
func edgeFunction() *ir.Function {
	f := ir.NewFunction("edge")
	r1, r2, r3 := f.NewReg(), f.NewReg(), f.NewReg()
	f.Params = []ir.Reg{r1, r2}
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	loop2 := f.NewBlock("loop") // printed as loop.b2
	loop3 := f.NewBlock("loop") // printed as loop.b3
	exit := f.NewBlock("loop.b2")

	emit := func(b *ir.Block, op ir.Op, dst ir.Reg, imm int64, srcs ...ir.Reg) *ir.Instr {
		in := f.NewInstr(op, dst, srcs...)
		in.Imm = imm
		b.Append(in)
		return in
	}
	emit(entry, ir.Const, r3, math.MinInt64)
	emit(entry, ir.Const, ir.NoReg, -1)
	emit(entry, ir.Load, r3, -3, r1)
	emit(entry, ir.Store, ir.NoReg, math.MinInt64, r3, r1)
	emit(entry, ir.Op(200), r3, 0, r1, r2)
	emit(entry, ir.Op(255), ir.NoReg, 0, ir.NoReg)
	emit(entry, ir.Add, ir.NoReg, 0, ir.NoReg, r2)
	emit(entry, ir.Nop, ir.NoReg, 0)
	emit(entry, ir.Br, ir.NoReg, 0, r3)
	entry.SetSuccs(loop, loop2)

	emit(loop, ir.Produce, ir.NoReg, 0, r3).Queue = 1 << 40
	emit(loop, ir.Jump, ir.NoReg, 0)
	loop.SetSuccs(loop3)
	emit(loop2, ir.Consume, r2, 0).Queue = 0
	emit(loop2, ir.ProduceSync, ir.NoReg, 0).Queue = 7
	emit(loop2, ir.ConsumeSync, ir.NoReg, 0).Queue = 12
	emit(loop2, ir.Jump, ir.NoReg, 0)
	loop2.SetSuccs(loop3)
	emit(loop3, ir.Br, ir.NoReg, 0, r2)
	loop3.SetSuccs(exit, loop)
	emit(exit, ir.Ret, ir.NoReg, 0, r3, ir.NoReg, r1, ir.Reg(-4))
	return f
}

// TestPrinterMatchesFmtReference wants the printer byte-identical to the
// fmt reference on every function of the corpus, on each of their
// instructions, and on instructions outside any function.
func TestPrinterMatchesFmtReference(t *testing.T) {
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got  %q\n want %q", what, got, want)
		}
	}
	for name, f := range printerCorpus(t) {
		check(name, f.String(), refFunction(f))
		f.Instrs(func(in *ir.Instr) {
			check(fmt.Sprintf("%s instr %d", name, in.ID), in.String(), refInstr(in))
		})
	}

	// A detached branch or jump names no target.
	f := ir.NewFunction("detached")
	for _, in := range []*ir.Instr{
		f.NewInstr(ir.Br, ir.NoReg, 5),
		f.NewInstr(ir.Jump, ir.NoReg),
		f.NewInstr(ir.Ret, ir.NoReg),
	} {
		check("detached "+refOp(in.Op), in.String(), refInstr(in))
	}
	for _, r := range []ir.Reg{ir.NoReg, 1, 9, 10, -1, math.MaxInt64, math.MinInt64} {
		check(fmt.Sprintf("Reg(%d)", int(r)), r.String(), refReg(r))
	}
	for op := 0; op < 256; op++ {
		check(fmt.Sprintf("Op(%d)", op), ir.Op(op).String(), refOp(ir.Op(op)))
	}
}
