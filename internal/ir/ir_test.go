package ir

import (
	"strings"
	"testing"
)

// buildDiamond constructs:
//
//	entry -> then|else -> join(ret)
func buildDiamond(t *testing.T) (*Builder, Reg) {
	t.Helper()
	b := NewBuilder("diamond")
	p := b.Param()
	then := b.Block("then")
	els := b.Block("else")
	join := b.Block("join")

	out := b.F.NewReg()
	cond := b.CmpGT(p, b.Const(0))
	b.Br(cond, then, els)

	b.SetBlock(then)
	b.MovTo(out, b.Const(1))
	b.Jump(join)

	b.SetBlock(els)
	b.MovTo(out, b.Const(2))
	b.Jump(join)

	b.SetBlock(join)
	b.Ret(out)
	return b, out
}

func TestBuilderProducesVerifiableFunction(t *testing.T) {
	b, _ := buildDiamond(t)
	if err := b.F.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := len(b.F.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4", got)
	}
	if b.F.RetInstr() == nil {
		t.Fatal("no Ret instruction found")
	}
	if got := len(b.F.LiveOuts()); got != 1 {
		t.Fatalf("live-outs = %d, want 1", got)
	}
}

func TestOpProperties(t *testing.T) {
	tests := []struct {
		op     Op
		term   bool
		hasDst bool
		nsrcs  int
		comm   bool
	}{
		{Const, false, true, 0, false},
		{Add, false, true, 2, false},
		{Load, false, true, 1, false},
		{Store, false, false, 2, false},
		{Br, true, false, 1, false},
		{Jump, true, false, 0, false},
		{Ret, true, false, -1, false},
		{Produce, false, false, 1, true},
		{Consume, false, true, 0, true},
		{ProduceSync, false, false, 0, true},
		{ConsumeSync, false, false, 0, true},
	}
	for _, tt := range tests {
		if got := tt.op.IsTerminator(); got != tt.term {
			t.Errorf("%v.IsTerminator() = %v, want %v", tt.op, got, tt.term)
		}
		if got := tt.op.HasDst(); got != tt.hasDst {
			t.Errorf("%v.HasDst() = %v, want %v", tt.op, got, tt.hasDst)
		}
		if got := tt.op.NumSrcs(); got != tt.nsrcs {
			t.Errorf("%v.NumSrcs() = %v, want %v", tt.op, got, tt.nsrcs)
		}
		if got := tt.op.IsComm(); got != tt.comm {
			t.Errorf("%v.IsComm() = %v, want %v", tt.op, got, tt.comm)
		}
	}
}

func TestOpStringsAreUniqueAndNamed(t *testing.T) {
	seen := map[string]Op{}
	for op := Nop; op < numOps; op++ {
		s := op.String()
		if strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("opcodes %d and %d share name %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// entry -Br-> loop, exit ; loop -Br-> loop, exit
	// Both edges into exit come from multi-successor blocks, and loop has
	// two predecessors, so entry->loop, loop->loop, entry->exit and
	// loop->exit are all critical.
	b := NewBuilder("crit")
	p := b.Param()
	loop := b.Block("loop")
	exit := b.Block("exit")
	b.Br(p, loop, exit)
	b.SetBlock(loop)
	c := b.CmpGT(p, b.Const(0))
	b.Br(c, loop, exit)
	b.SetBlock(exit)
	b.Ret()

	if err := b.F.Verify(); err != nil {
		t.Fatalf("pre-split Verify: %v", err)
	}
	n := b.F.SplitCriticalEdges()
	if n != 4 {
		t.Fatalf("split %d edges, want 4", n)
	}
	if err := b.F.Verify(); err != nil {
		t.Fatalf("post-split Verify: %v", err)
	}
	for _, blk := range b.F.Blocks {
		if len(blk.Succs) >= 2 {
			for _, s := range blk.Succs {
				if len(s.Preds) >= 2 {
					t.Errorf("critical edge %s->%s survived", blk.Name, s.Name)
				}
			}
		}
	}
}

func TestVerifyCatchesBrokenFunctions(t *testing.T) {
	t.Run("unterminated block", func(t *testing.T) {
		f := NewFunction("bad")
		f.NewBlock("entry")
		if err := f.Verify(); err == nil {
			t.Error("Verify accepted unterminated block")
		}
	})
	t.Run("missing ret", func(t *testing.T) {
		f := NewFunction("bad")
		e := f.NewBlock("entry")
		e.Append(f.NewInstr(Jump, NoReg))
		e.SetSuccs(e)
		if err := f.Verify(); err == nil {
			t.Error("Verify accepted function without Ret")
		}
	})
	t.Run("bad source register", func(t *testing.T) {
		f := NewFunction("bad")
		e := f.NewBlock("entry")
		e.Append(f.NewInstr(Ret, NoReg, Reg(99)))
		if err := f.Verify(); err == nil {
			t.Error("Verify accepted unallocated source register")
		}
	})
	t.Run("queue out of range", func(t *testing.T) {
		f := NewFunction("bad")
		e := f.NewBlock("entry")
		p := f.NewInstr(ProduceSync, NoReg)
		p.Queue = 3
		e.Append(p)
		e.Append(f.NewInstr(Ret, NoReg))
		if err := f.Verify(); err == nil {
			t.Error("Verify accepted out-of-range queue")
		}
	})
	t.Run("instruction ID outside the ID space", func(t *testing.T) {
		f := NewFunction("bad")
		e := f.NewBlock("entry")
		ret := f.NewInstr(Ret, NoReg)
		ret.ID = f.NumInstrIDs()
		e.Append(ret)
		if err := f.Verify(); err == nil {
			t.Error("Verify accepted an instruction ID the executors' tables have no slot for")
		}
	})
	t.Run("duplicate instruction ID", func(t *testing.T) {
		f := everyOpFunction(t)
		a, b := f.Blocks[0].Instrs[0], f.Blocks[0].Instrs[70%len(f.Blocks[0].Instrs)]
		b.ID = a.ID
		if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "duplicate instr ID") {
			t.Errorf("Verify on two instructions with one ID: %v", err)
		}
	})
	t.Run("unreachable block", func(t *testing.T) {
		f := NewFunction("bad")
		e := f.NewBlock("entry")
		e.Append(f.NewInstr(Ret, NoReg))
		dead := f.NewBlock("dead")
		dead.Append(f.NewInstr(Jump, NoReg))
		dead.SetSuccs(e)
		if err := f.Verify(); err == nil {
			t.Error("Verify accepted unreachable block")
		}
	})
}

func TestProfileWeights(t *testing.T) {
	b, _ := buildDiamond(t)
	f := b.F
	p := NewProfile(f)
	entry, then, els, join := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	p.AddEdge(entry, then, 7)
	p.AddEdge(entry, els, 3)
	p.AddEdge(then, join, 7)
	p.AddEdge(els, join, 3)
	if w := p.BlockWeight(join); w != 10 {
		t.Errorf("BlockWeight(join) = %d, want 10", w)
	}
	if w := p.BlockWeight(entry); w != 10 {
		t.Errorf("BlockWeight(entry) = %d, want 10", w)
	}
	if w := p.EdgeWeight(entry, els); w != 3 {
		t.Errorf("EdgeWeight(entry,else) = %d, want 3", w)
	}
}

func TestInstrStringFormats(t *testing.T) {
	b := NewBuilder("strings")
	x := b.Param()
	y := b.Add(x, x)
	b.Store(y, x, 4)
	z := b.Load(x, 8)
	b.Ret(z)
	f := b.F

	var got []string
	f.Instrs(func(in *Instr) { got = append(got, in.String()) })
	want := []string{
		"r2 = add r1, r1",
		"store [r1+4] = r2",
		"r3 = load [r1+8]",
		"ret r3",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d instrs: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("instr %d = %q, want %q", i, got[i], want[i])
		}
	}
	if !strings.Contains(f.String(), "func strings(r1)") {
		t.Errorf("function header missing: %q", f.String())
	}
}

func TestInsertAtAndIndex(t *testing.T) {
	b := NewBuilder("ins")
	x := b.Param()
	b.Add(x, x)
	b.Ret()
	blk := b.F.Entry()
	in := b.F.NewInstr(Nop, NoReg)
	blk.InsertAt(1, in)
	if blk.Instrs[1] != in {
		t.Fatal("InsertAt did not place instruction")
	}
	if got := in.Index(); got != 1 {
		t.Errorf("Index = %d, want 1", got)
	}
	if in.Block() != blk {
		t.Error("Block link not set by InsertAt")
	}
}

// TestSameCode: two builds of one function are the same code, names aside,
// and a change to any one thing an executor reads makes them different. The
// comparison allocates nothing — it sits on every request's path.
func TestSameCode(t *testing.T) {
	f := everyOpFunction(t)
	same := everyOpFunction(t)
	same.Name, same.Blocks[1].Name = "other", "renamed"
	if !f.SameCode(f) || !f.SameCode(same) || !same.SameCode(f) {
		t.Fatal("two builds of one function are not the same code")
	}
	if n := testing.AllocsPerRun(10, func() { f.SameCode(same) }); n != 0 {
		t.Errorf("SameCode allocates %v times a call, want 0", n)
	}

	first := func(g *Function, op Op) *Instr {
		for _, in := range g.Blocks[0].Instrs {
			if in.Op == op {
				return in
			}
		}
		t.Fatalf("fixture has no %v", op)
		return nil
	}
	for _, tc := range []struct {
		name   string
		change func(g *Function)
	}{
		{"op", func(g *Function) { first(g, Add).Op = Sub }},
		{"dst", func(g *Function) { first(g, Add).Dst = first(g, Sub).Dst }},
		{"source", func(g *Function) { first(g, Add).Srcs[1] = g.Params[0] }},
		{"source count", func(g *Function) { ret := g.RetInstr(); ret.Srcs = ret.Srcs[:3] }},
		{"imm", func(g *Function) { first(g, Const).Imm++ }},
		{"queue", func(g *Function) { first(g, Produce).Queue++ }},
		{"ID", func(g *Function) { a, b := first(g, Add), first(g, Sub); a.ID, b.ID = b.ID, a.ID }},
		{"orig", func(g *Function) { first(g, Br).Orig = first(f, Br) }},
		{"successor", func(g *Function) { b := g.Blocks[0]; b.SetSuccs(b.Succs[1], b.Succs[0]) }},
		{"parameter", func(g *Function) { g.Params[0], g.Params[1] = g.Params[1], g.Params[0] }},
		{"parameter count", func(g *Function) { g.Params = g.Params[:1] }},
		{"NumQueues", func(g *Function) { g.NumQueues++ }},
		{"register space", func(g *Function) { g.NewReg() }},
		{"instruction-ID space", func(g *Function) { g.NewInstr(Nop, NoReg) }},
		{"instruction count", func(g *Function) { g.Blocks[2].InsertAt(0, g.NewInstr(Nop, NoReg)) }},
		{"block count", func(g *Function) { g.NewBlock("extra") }},
	} {
		g := everyOpFunction(t)
		tc.change(g)
		if f.SameCode(g) || g.SameCode(f) {
			t.Errorf("a different %s is still the same code", tc.name)
		}
	}
}
