package pdg

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/testprog"
)

func hasArc(g *Graph, from, to *ir.Instr, k Kind) bool {
	for _, a := range g.OutArcs(from) {
		if a.To == to && a.Kind == k {
			return true
		}
	}
	return false
}

func TestFig3Dependences(t *testing.T) {
	p := testprog.Fig3()
	if err := p.F.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	g := Build(p.F, p.Objects)

	// The paper's three inter-thread dependences (for the given
	// partition): register deps (A->F) and (E->F) on r1, and control dep
	// (D->E) which makes (D->F) transitive.
	if !hasArc(g, p.Instrs["A"], p.Instrs["F"], KindReg) {
		t.Error("missing register dep A->F")
	}
	if !hasArc(g, p.Instrs["E"], p.Instrs["F"], KindReg) {
		t.Error("missing register dep E->F")
	}
	if !hasArc(g, p.Instrs["D"], p.Instrs["E"], KindControl) {
		t.Error("missing control dep D->E")
	}
	// E also uses r1 defined by A (same iteration). A redefines r1 at the
	// top of every iteration, so E's definition never survives a back
	// edge: no loop-carried E->E arc may exist.
	if !hasArc(g, p.Instrs["A"], p.Instrs["E"], KindReg) {
		t.Error("missing register dep A->E")
	}
	if hasArc(g, p.Instrs["E"], p.Instrs["E"], KindReg) {
		t.Error("spurious loop-carried E->E arc (A kills r1 each iteration)")
	}
	// C->D carries r2.
	found := false
	for _, a := range g.OutArcs(p.Instrs["C"]) {
		if a.To == p.Instrs["D"] && a.Kind == KindReg && a.Reg == p.Regs["r2"] {
			found = true
		}
	}
	if !found {
		t.Error("missing register dep C->D on r2")
	}
	// Loop branch G controls the loop body instructions.
	if !hasArc(g, p.Instrs["G"], p.Instrs["A"], KindControl) {
		t.Error("missing control dep G->A (loop re-execution)")
	}
	// B controls C (the B2 block).
	if !hasArc(g, p.Instrs["B"], p.Instrs["C"], KindControl) {
		t.Error("missing control dep B->C")
	}
	// No dependence from F back into thread 1's computation besides ret.
	if hasArc(g, p.Instrs["F"], p.Instrs["A"], KindReg) {
		t.Error("spurious dep F->A")
	}
}

// arcsBetween returns the arcs from thread from's instructions into thread
// to's under assign.
func arcsBetween(g *Graph, assign map[*ir.Instr]int, from, to int) []*Arc {
	var out []*Arc
	for _, a := range g.Arcs {
		if assign[a.From] == from && assign[a.To] == to && from != to {
			out = append(out, a)
		}
	}
	return out
}

func TestFig4SingleInterThreadDep(t *testing.T) {
	p := testprog.Fig4()
	g := Build(p.F, p.Objects)

	inter := arcsBetween(g, p.Assign, 0, 1)
	// Paper: "The only inter-thread dependence is the register dependence
	// (B->E)". Plus our explicit live-out arcs into ret: s is defined in
	// T_t, so only (B->E) crosses threads.
	for _, a := range inter {
		if a.Kind != KindReg || a.Reg != p.Regs["r1"] {
			t.Errorf("unexpected inter-thread arc %v", a)
		}
		if a.From != p.Instrs["B"] || a.To != p.Instrs["E"] {
			t.Errorf("inter-thread arc %v, want B->E", a)
		}
	}
	if len(inter) != 1 {
		t.Errorf("%d inter-thread arcs, want 1 (B->E)", len(inter))
	}
	// No arcs flow T_t -> T_s (the partition is a pipeline).
	if back := arcsBetween(g, p.Assign, 1, 0); len(back) != 0 {
		t.Errorf("unexpected backward arcs: %v", back)
	}
}

func TestFig5MemoryDependences(t *testing.T) {
	p := testprog.Fig5()
	g := Build(p.F, p.Objects)

	if !hasArc(g, p.Instrs["D"], p.Instrs["K"], KindMem) {
		t.Error("missing memory dep D->K (store y -> load y)")
	}
	if !hasArc(g, p.Instrs["G"], p.Instrs["J"], KindMem) {
		t.Error("missing memory dep G->J (store x -> load x)")
	}
	// x and y are distinct objects: no cross arcs.
	if hasArc(g, p.Instrs["D"], p.Instrs["J"], KindMem) {
		t.Error("spurious memory dep D->J (y vs x)")
	}
	if hasArc(g, p.Instrs["G"], p.Instrs["K"], KindMem) {
		t.Error("spurious memory dep G->K (x vs y)")
	}
	// The program is acyclic: no backward memory arcs load->store.
	if hasArc(g, p.Instrs["K"], p.Instrs["D"], KindMem) {
		t.Error("spurious backward memory dep K->D in acyclic code")
	}
	// Branch H controls I and J.
	if !hasArc(g, p.Instrs["H"], p.Instrs["J"], KindControl) {
		t.Error("missing control dep H->J")
	}
	if hasArc(g, p.Instrs["H"], p.Instrs["K"], KindControl) {
		t.Error("spurious control dep H->K (B9 post-dominates B8)")
	}
}

func TestMemoryDepsBidirectionalInLoop(t *testing.T) {
	// A store and load of the same array inside one loop depend on each
	// other in both directions — the property that forces them into one
	// DSWP stage (Section 4).
	b := ir.NewBuilder("memloop")
	arr := b.Array("a", 8)
	loop := b.Block("loop")
	exit := b.Block("exit")
	i := b.F.NewReg()
	b.ConstTo(i, 0)
	b.Jump(loop)
	b.SetBlock(loop)
	base := b.AddrOf(arr)
	pa := b.Add(base, i)
	v := b.Load(pa, 0)
	b.Store(v, pa, 1)
	one := b.Const(1)
	b.Op2To(i, ir.Add, i, one)
	lim := b.Const(8)
	c := b.CmpLT(i, lim)
	b.Br(c, loop, exit)
	b.SetBlock(exit)
	b.Ret()
	b.F.SplitCriticalEdges()

	g := Build(b.F, b.Objects)
	var load, store *ir.Instr
	b.F.Instrs(func(in *ir.Instr) {
		switch in.Op {
		case ir.Load:
			load = in
		case ir.Store:
			store = in
		}
	})
	if !hasArc(g, load, store, KindMem) || !hasArc(g, store, load, KindMem) {
		t.Error("loop memory dependences must be bidirectional")
	}
}

func TestSCCCondensationTopological(t *testing.T) {
	p := testprog.Fig4()
	g := Build(p.F, p.Objects)
	sccs := g.SCCs()

	// Loop 1's induction (A: i++ feeding the compare feeding branch C,
	// which controls A) must form a multi-instruction SCC.
	sccOf := map[*ir.Instr]int{}
	for ci, c := range sccs {
		for _, in := range c.Instrs {
			sccOf[in] = ci
		}
	}
	if sccOf[p.Instrs["A"]] != sccOf[p.Instrs["C"]] {
		t.Error("induction A and branch C should share an SCC")
	}
	if len(sccs[sccOf[p.Instrs["A"]]].Instrs) < 3 {
		t.Errorf("induction SCC has %d instrs, want >= 3 (A, compare, C)",
			len(sccs[sccOf[p.Instrs["A"]]].Instrs))
	}
	// B and E must be in different SCCs, with B's before E's in topo order.
	bi, ei := sccOf[p.Instrs["B"]], sccOf[p.Instrs["E"]]
	if bi == ei {
		t.Fatal("B and E must not share an SCC")
	}
	if bi > ei {
		t.Errorf("SCC order: B's (%d) should precede E's (%d)", bi, ei)
	}
	// Succs must respect topological numbering.
	for ci, c := range sccs {
		for _, s := range c.Succs {
			if s <= ci {
				t.Errorf("SCC %d has successor %d (not topological)", ci, s)
			}
		}
	}
	// Every instruction appears exactly once.
	n := 0
	for _, c := range sccs {
		n += len(c.Instrs)
	}
	if n != p.F.NumInstrs() {
		t.Errorf("SCCs cover %d instrs, function has %d", n, p.F.NumInstrs())
	}
}

func TestJumpsExcludedFromControlDeps(t *testing.T) {
	p := testprog.Fig4()
	g := Build(p.F, p.Objects)
	p.F.Instrs(func(in *ir.Instr) {
		if in.Op == ir.Jump {
			if arcs := g.InArcs(in); len(arcs) != 0 {
				t.Errorf("jump %v has dependence arcs %v", in, arcs)
			}
		}
	})
}

// TestCarriedAnalysesMatchArcs: the chains and the CDG a Graph carries for
// the planners are the ones its arcs came from — Chains yields exactly the
// register arcs (first occurrence of each, live-in definitions skipped) and
// CDG.Deps exactly the control arcs, in arc order.
func TestCarriedAnalysesMatchArcs(t *testing.T) {
	for name, p := range map[string]*testprog.Prog{
		"fig3": testprog.Fig3(), "fig4": testprog.Fig4(), "fig5": testprog.Fig5(),
	} {
		g := Build(p.F, p.Objects)
		var want []Arc
		seen := map[Arc]bool{}
		add := func(a Arc) {
			if !seen[a] {
				seen[a] = true
				want = append(want, a)
			}
		}
		for _, uc := range g.Chains {
			for _, def := range uc.Defs {
				if def != nil {
					add(Arc{From: def, To: uc.Use, Kind: KindReg, Reg: uc.Reg})
				}
			}
		}
		nReg := len(want)
		for _, blk := range p.F.Blocks {
			for _, d := range g.CDG.Deps(blk) {
				br := d.Branch.Terminator()
				for _, in := range blk.Instrs {
					if in != br && in.Op != ir.Jump {
						add(Arc{From: br, To: in, Kind: KindControl})
					}
				}
			}
		}
		if nReg == 0 || len(want) == nReg {
			t.Fatalf("%s: fixture has %d register and %d control arcs; want both", name, nReg, len(want)-nReg)
		}
		var got []Arc
		for _, a := range g.Arcs {
			if a.Kind != KindMem {
				got = append(got, *a)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d register+control arcs, the carried analyses yield %d", name, len(got), len(want))
		}
		// Build adds register arcs, then memory, then control.
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: arc %d is %v, the carried analyses yield %v", name, i, &got[i], &want[i])
			}
		}
	}
}
