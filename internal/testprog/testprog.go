// Package testprog provides the worked examples from the paper (Figures 3,
// 4 and 5) as executable IR fixtures, with the partitions and profile
// weights the text assumes. The MTCG and COCO tests assert the exact
// outcomes the paper derives for them: cut locations, cut costs, removed
// control flow, and shared memory synchronizations.
package testprog

import "repro/internal/ir"

// Prog bundles a fixture: the function, its memory objects, the thread
// partition by instruction, the profile, and named instructions/blocks for
// assertions.
type Prog struct {
	F       *ir.Function
	Objects []ir.MemObject
	// Assign maps each instruction to its thread (0 = T_s, 1 = T_t in the
	// two-thread figures).
	Assign  map[*ir.Instr]int
	Profile *ir.Profile
	Instrs  map[string]*ir.Instr
	Blocks  map[string]*ir.Block
	// Regs names the registers discussed in the paper's text (r1, r2, ...).
	Regs map[string]ir.Reg
}

// Fig3 reconstructs the example of Figure 3. Layout (10 loop iterations):
//
//	B1: A: r1 = p1+1            ; B: br p2 -> B2, B3     (10 executions)
//	B2: C: r2 = p1*3            ; D: br r2-ish -> B2e,B3 (7 executions)
//	B2e: E: r1 = r1+5           ; jump B3                (4 executions)
//	B3: F: r4 = r1*2 [thread 2] ; G: br p3 -> B1, exit   (10 executions)
//	exit: ret r4 [thread 2]
//
// Thread partition: P1 = {A,B,C,D,E,G}, P2 = {F, ret}. The inter-thread
// dependences are the register dependences (A->F) and (E->F) on r1 and the
// transitive control dependence (D->F) (D controls E). The paper's min-cut
// for r1 is the single arc (B3entry -> F) with cost 10; MTCG's naive cut
// {(after A), (after E)} costs 14.
func Fig3() *Prog {
	b := ir.NewBuilder("fig3")
	p1 := b.Param()
	p2 := b.Param()
	p3 := b.Param()

	b2 := b.Block("B2")
	b2e := b.Block("B2e")
	b3 := b.Block("B3")
	exit := b.Block("exit")

	f := b.F
	r1 := f.NewReg()
	// B1 (the entry block plays B1).
	one := b.Const(1)
	b.Op2To(r1, ir.Add, p1, one) // A
	iA := last(b)
	b.Br(p2, b2, b3) // B
	iB := last(b)

	b.SetBlock(b2)
	three := b.Const(3)
	r2 := b.Mul(p1, three) // C
	iC := last(b)
	b.Br(r2, b2e, b3) // D
	iD := last(b)

	b.SetBlock(b2e)
	five := b.Const(5)
	b.Op2To(r1, ir.Add, r1, five) // E
	iE := last(b)
	b.Jump(b3)

	b.SetBlock(b3)
	two := b.Const(2)
	r4 := b.Mul(r1, two) // F
	iF := last(b)
	b.Br(p3, f.Entry(), exit) // G
	iG := last(b)

	b.SetBlock(exit)
	b.Ret(r4)
	iRet := last(b)

	assign := map[*ir.Instr]int{}
	f.Instrs(func(in *ir.Instr) { assign[in] = 0 })
	assign[iF] = 1
	assign[iRet] = 1

	f.SplitCriticalEdges()

	// Profile: 10 iterations; B1->B2 7, B1->B3 3; B2->B2e 4, B2->B3 3;
	// B3->B1 9, B3->exit 1.
	prof := ir.NewProfile(f)
	wire(prof, f.Entry(), b2, 7)
	wire(prof, f.Entry(), b3, 3)
	wire(prof, b2, b2e, 4)
	wire(prof, b2, b3, 3)
	wire(prof, b2e, b3, 4)
	wire(prof, b3, f.Entry(), 9)
	wire(prof, b3, exit, 1)

	return &Prog{
		F:       f,
		Assign:  assign,
		Profile: prof,
		Instrs: map[string]*ir.Instr{
			"A": iA, "B": iB, "C": iC, "D": iD, "E": iE, "F": iF, "G": iG, "ret": iRet,
		},
		Blocks: map[string]*ir.Block{
			"B1": f.Entry(), "B2": b2, "B2e": b2e, "B3": b3, "exit": exit,
		},
		Regs: map[string]ir.Reg{"r1": r1, "r2": r2, "r4": r4},
	}
}

// Fig4 reconstructs the example of Figure 4: a live-out produced by a loop
// in T_s and consumed by a loop in T_t.
//
//	B1:  r1=0; i=0                       ; jump B2
//	B2:  A: i=i+1; B: r1=r1+i; C: br i<10 -> B2, B3   (loop 1, 10 iters)
//	B3:  D: j=0                          ; jump B4
//	B4:  E: s=s+r1; Jn: j=j+1; F: br j<5 -> B4, exit  (loop 2, 5 iters)
//	exit: ret s
//
// T_s = {entry, A, B, C}; T_t = {D, E, Jn, F, ret}. The only inter-thread
// dependence is (B->E) on r1. MTCG communicates r1 after B inside loop 1
// (10 dynamic communications, and T_t must replicate loop 1); COCO's
// min-cut moves the communication to the loop exit (cost 1), removing loop
// 1 from T_t entirely.
func Fig4() *Prog {
	b := ir.NewBuilder("fig4")
	b2 := b.Block("B2")
	b3 := b.Block("B3")
	b4 := b.Block("B4")
	exit := b.Block("exit")

	f := b.F
	r1 := f.NewReg()
	i := f.NewReg()
	s := f.NewReg()
	j := f.NewReg()

	b.ConstTo(r1, 0)
	b.ConstTo(i, 0)
	b.Jump(b2)

	b.SetBlock(b2)
	one := b.Const(1)
	b.Op2To(i, ir.Add, i, one) // A
	iA := last(b)
	b.Op2To(r1, ir.Add, r1, i) // B
	iB := last(b)
	ten := b.Const(10)
	c1 := b.CmpLT(i, ten)
	b.Br(c1, b2, b3) // C
	iC := last(b)

	b.SetBlock(b3)
	b.ConstTo(j, 0) // D
	iD := last(b)
	b.ConstTo(s, 0) // s is T_t state, initialized in T_t's first block
	b.Jump(b4)

	b.SetBlock(b4)
	b.Op2To(s, ir.Add, s, r1) // E
	iE := last(b)
	one2 := b.Const(1)
	b.Op2To(j, ir.Add, j, one2) // Jn
	five := b.Const(5)
	c2 := b.CmpLT(j, five)
	b.Br(c2, b4, exit) // F
	iF := last(b)

	b.SetBlock(exit)
	b.Ret(s)
	iRet := last(b)

	f.SplitCriticalEdges()

	assign := map[*ir.Instr]int{}
	f.Instrs(func(in *ir.Instr) {
		if in.Block() == f.Entry() || in.Block() == b2 {
			assign[in] = 0
		} else {
			assign[in] = 1
		}
	})

	prof := ir.NewProfile(f)
	wire(prof, f.Entry(), b2, 1)
	wire(prof, b2, b2, 9)
	wire(prof, b2, b3, 1)
	wire(prof, b3, b4, 1)
	wire(prof, b4, b4, 4)
	wire(prof, b4, exit, 1)

	return &Prog{
		F:       f,
		Assign:  assign,
		Profile: prof,
		Instrs: map[string]*ir.Instr{
			"A": iA, "B": iB, "C": iC, "D": iD, "E": iE, "F": iF, "ret": iRet,
		},
		Blocks: map[string]*ir.Block{
			"B1": f.Entry(), "B2": b2, "B3": b3, "B4": b4, "exit": exit,
		},
		Regs: map[string]ir.Reg{"r1": r1, "i": i, "s": s},
	}
}

// Fig5 reconstructs the example of Figure 5: a hammock whose arms define
// r1, followed by stores in T_s and loads in T_t, with a T_t-only hammock
// at the bottom.
//
//	B1:  A: r9 = p1+1            ; jump B2                (8 executions)
//	B2:  B: br p2 -> B3, B4                               (8)
//	B3:  C: r1 = p1*2 ; D: store y = r1 ; jump B6         (4)
//	B4:  E: r1 = p1+3            ; jump B6                (4)
//	B6:  G: store x = r1         ; jump B7                (8)
//	B7:  F: r1 = r1*2 [T_t]      ; jump B8                (8)
//	B8:  H: br p3 -> B8a, B9 [T_t]                        (8)
//	B8a: I: r5 = p1+4 ; J: r6 = load x [T_t] ; jump B9    (5)
//	B9:  K: r7 = load y [T_t]    ; ret r1, r7 [T_t]       (8)
//
// T_s = {A,B,C,D,E,G}, T_t = {F,H,I,J,K,ret}. Register r1 must be
// communicated from T_s to T_t; placing it in B3 and B4 would make branch B
// relevant to T_t, so the control-flow penalties steer the cut to B6/B7
// (cost 8). The memory dependences (D->K) on y and (G->J) on x share one
// synchronization placed after G (cost 8).
func Fig5() *Prog {
	b := ir.NewBuilder("fig5")
	y := b.Array("y", 1)
	x := b.Array("x", 1)

	p1 := b.Param()
	p2 := b.Param()
	p3 := b.Param()

	b2 := b.Block("B2")
	b3 := b.Block("B3")
	b4 := b.Block("B4")
	b6 := b.Block("B6")
	b7 := b.Block("B7")
	b8 := b.Block("B8")
	b8a := b.Block("B8a")
	b9 := b.Block("B9")

	f := b.F
	r1 := f.NewReg()

	one := b.Const(1)
	r9 := b.Add(p1, one) // A
	iA := last(b)
	_ = r9
	b.Jump(b2)

	b.SetBlock(b2)
	b.Br(p2, b3, b4) // B
	iB := last(b)

	b.SetBlock(b3)
	two := b.Const(2)
	b.Op2To(r1, ir.Mul, p1, two) // C
	iC := last(b)
	ybase := b.AddrOf(y)
	b.Store(r1, ybase, 0) // D
	iD := last(b)
	b.Jump(b6)

	b.SetBlock(b4)
	three := b.Const(3)
	b.Op2To(r1, ir.Add, p1, three) // E
	iE := last(b)
	b.Jump(b6)

	b.SetBlock(b6)
	xbase := b.AddrOf(x)
	b.Store(r1, xbase, 0) // G
	iG := last(b)
	b.Jump(b7)

	b.SetBlock(b7)
	two2 := b.Const(2)
	b.Op2To(r1, ir.Mul, r1, two2) // F (T_t)
	iF := last(b)
	b.Jump(b8)

	b.SetBlock(b8)
	b.Br(p3, b8a, b9) // H (T_t)
	iH := last(b)

	b.SetBlock(b8a)
	four := b.Const(4)
	r5 := b.Add(p1, four) // I
	iI := last(b)
	_ = r5
	xbase2 := b.AddrOf(x)
	r6 := b.Load(xbase2, 0) // J
	iJ := last(b)
	_ = r6
	b.Jump(b9)

	b.SetBlock(b9)
	ybase2 := b.AddrOf(y)
	r7 := b.Load(ybase2, 0) // K
	iK := last(b)
	b.Ret(r1, r7)
	iRet := last(b)

	f.SplitCriticalEdges()

	assign := map[*ir.Instr]int{}
	f.Instrs(func(in *ir.Instr) {
		switch in.Block() {
		case b7, b8, b8a, b9:
			assign[in] = 1
		default:
			assign[in] = 0
		}
	})

	prof := ir.NewProfile(f)
	wire(prof, f.Entry(), b2, 8)
	wire(prof, b2, b3, 4)
	wire(prof, b2, b4, 4)
	wire(prof, b3, b6, 4)
	wire(prof, b4, b6, 4)
	wire(prof, b6, b7, 8)
	wire(prof, b7, b8, 8)
	wire(prof, b8, b8a, 5)
	wire(prof, b8, b9, 3)
	wire(prof, b8a, b9, 5)

	return &Prog{
		F:       f,
		Objects: b.Objects,
		Assign:  assign,
		Profile: prof,
		Instrs: map[string]*ir.Instr{
			"A": iA, "B": iB, "C": iC, "D": iD, "E": iE, "F": iF,
			"G": iG, "H": iH, "I": iI, "J": iJ, "K": iK, "ret": iRet,
		},
		Blocks: map[string]*ir.Block{
			"B1": f.Entry(), "B2": b2, "B3": b3, "B4": b4, "B6": b6,
			"B7": b7, "B8": b8, "B8a": b8a, "B9": b9,
		},
		Regs: map[string]ir.Reg{"r1": r1},
	}
}

// last returns the most recently emitted instruction of the builder's
// current block.
func last(b *ir.Builder) *ir.Instr {
	ins := b.Cur().Instrs
	return ins[len(ins)-1]
}

// wire records w executions of the conceptual edge from->to in the profile,
// routing through the empty block SplitCriticalEdges may have inserted.
func wire(prof *ir.Profile, from, to *ir.Block, w int64) {
	for _, s := range from.Succs {
		if s == to {
			prof.AddEdge(from, to, w)
			return
		}
		if len(s.Instrs) == 1 && s.Instrs[0].Op == ir.Jump &&
			len(s.Succs) == 1 && s.Succs[0] == to && len(s.Preds) == 1 {
			prof.AddEdge(from, s, w)
			prof.AddEdge(s, to, w)
			return
		}
	}
	panic("testprog: no edge " + from.Name + " -> " + to.Name)
}
