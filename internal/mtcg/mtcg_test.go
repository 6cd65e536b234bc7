package mtcg_test

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/pdg"
	"repro/internal/testprog"
)

// after is the point immediately after a non-terminator instruction.
func after(in *ir.Instr) mtcg.Point { return mtcg.Point{Block: in.Block(), Index: in.Index() + 1} }

// before is the point immediately before an instruction.
func before(in *ir.Instr) mtcg.Point { return mtcg.Point{Block: in.Block(), Index: in.Index()} }

// naiveProgram builds the naive-MTCG multi-threaded program for a fixture.
func naiveProgram(t *testing.T, p *testprog.Prog) *mtcg.Program {
	t.Helper()
	g := pdg.Build(p.F, p.Objects)
	plan := mtcg.NaivePlan(p.F, g, p.Assign, 2)
	prog, err := mtcg.Generate(plan)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, ft := range prog.Threads {
		if err := ft.Verify(); err != nil {
			t.Fatalf("thread %s invalid: %v\n%s", ft.Name, err, ft)
		}
	}
	return prog
}

// runBoth executes the fixture single- and multi-threaded and checks
// equivalence of live-outs and memory.
func runBoth(t *testing.T, p *testprog.Prog, prog *mtcg.Program, args []int64, memSize int64) (*interp.Result, *interp.MTResult) {
	t.Helper()
	st, err := interp.Run(p.F, args, make(interp.Memory, memSize), 1_000_000)
	if err != nil {
		t.Fatalf("single-threaded run: %v", err)
	}
	mt, err := interp.RunMT(interp.MTConfig{
		Threads:   prog.Threads,
		NumQueues: prog.NumQueues,
		Assign:    p.Assign,
		Args:      args,
		Mem:       make(interp.Memory, memSize),
		MaxSteps:  1_000_000,
	})
	if err != nil {
		t.Fatalf("multi-threaded run: %v", err)
	}
	if len(st.LiveOuts) != len(mt.LiveOuts) {
		t.Fatalf("live-out count: ST %v, MT %v", st.LiveOuts, mt.LiveOuts)
	}
	for i := range st.LiveOuts {
		if st.LiveOuts[i] != mt.LiveOuts[i] {
			t.Errorf("live-out %d: ST %d, MT %d", i, st.LiveOuts[i], mt.LiveOuts[i])
		}
	}
	for a := range st.Mem {
		if st.Mem[a] != mt.Mem[a] {
			t.Errorf("mem[%d]: ST %d, MT %d", a, st.Mem[a], mt.Mem[a])
		}
	}
	return st, mt
}

func TestFig3NaivePlan(t *testing.T) {
	p := testprog.Fig3()
	g := pdg.Build(p.F, p.Objects)
	plan := mtcg.NaivePlan(p.F, g, p.Assign, 2)

	// r1 must be communicated 0->1 at the points after A and after E.
	var r1c *mtcg.Comm
	for _, c := range plan.Comms {
		if c.Kind == pdg.KindReg && c.Reg == p.Regs["r1"] && c.Src == 0 && c.Dst == 1 {
			r1c = c
		}
	}
	if r1c == nil {
		t.Fatalf("no r1 communication in plan: %v", plan.Comms)
	}
	wantPts := map[mtcg.Point]bool{
		after(p.Instrs["A"]): true,
		after(p.Instrs["E"]): true,
	}
	if len(r1c.Points) != 2 || !wantPts[r1c.Points[0]] || !wantPts[r1c.Points[1]] {
		t.Errorf("r1 points = %v, want after A and after E", r1c.Points)
	}

	// D becomes relevant to thread 1 (transitive control dependence), so
	// its operand r2 is communicated right before D.
	if !plan.Relevant[1][p.Blocks["B2"].ID] {
		t.Error("branch D (B2) should be relevant to thread 1")
	}
	var r2c *mtcg.Comm
	for _, c := range plan.Comms {
		if c.Kind == pdg.KindReg && c.Reg == p.Regs["r2"] {
			r2c = c
		}
	}
	if r2c == nil {
		t.Fatal("no r2 communication for duplicated branch D")
	}
	if len(r2c.Points) != 1 || r2c.Points[0] != before(p.Instrs["D"]) {
		t.Errorf("r2 points = %v, want before D", r2c.Points)
	}

	// Branch operands that are unredefined live-ins (p2 of B, p3 of G)
	// need no communication.
	for _, c := range plan.Comms {
		if c.Kind == pdg.KindReg && (c.Reg == p.F.Params[1] || c.Reg == p.F.Params[2]) {
			t.Errorf("live-in parameter communicated: %v", c)
		}
	}
}

func TestFig3GenerateAndEquivalence(t *testing.T) {
	p := testprog.Fig3()
	prog := naiveProgram(t, p)

	// Thread 2 (index 1) replicates branches B, D and G; with the naive
	// plan all of B1, B2, B2e, B3 are relevant to it.
	t1 := prog.Threads[1]
	for _, name := range []string{"entry", "B2", "B2e", "B3"} {
		if t1.BlockByName(name) == nil {
			t.Errorf("thread 2 lacks block %s (naive MTCG keeps it)", name)
		}
	}
	// p3 = 0: exit after one iteration; exercise both arms via p2.
	for _, p2 := range []int64{0, 1} {
		runBoth(t, p, prog, []int64{5, p2, 0}, 0)
	}
}

func TestFig4NaiveCommunicatesInLoop(t *testing.T) {
	p := testprog.Fig4()
	prog := naiveProgram(t, p)
	_, mt := runBoth(t, p, prog, nil, 0)

	// Naive MTCG produces r1 after B on every loop-1 iteration (10) and
	// the replicated branch operand c1 on every iteration (10).
	if mt.Stats.Produce != 20 {
		t.Errorf("naive produces = %d, want 20 (r1 and c1, 10 iterations each)", mt.Stats.Produce)
	}
	if mt.Stats.Consume != mt.Stats.Produce {
		t.Errorf("consumes (%d) != produces (%d)", mt.Stats.Consume, mt.Stats.Produce)
	}
	// Thread 1 replicates loop 1's branch C: 10 dynamic duplicated
	// branches.
	if mt.Stats.DupBranch != 10 {
		t.Errorf("duplicated branch executions = %d, want 10", mt.Stats.DupBranch)
	}
	// The single-threaded result: sum 1..10 = 55, accumulated 5 times.
	if len(mt.LiveOuts) != 1 || mt.LiveOuts[0] != 275 {
		t.Errorf("live-out = %v, want [275]", mt.LiveOuts)
	}
}

func TestFig5NaiveMemorySync(t *testing.T) {
	p := testprog.Fig5()
	g := pdg.Build(p.F, p.Objects)
	plan := mtcg.NaivePlan(p.F, g, p.Assign, 2)

	var memc *mtcg.Comm
	for _, c := range plan.Comms {
		if c.Kind == pdg.KindMem {
			if c.Src != 0 || c.Dst != 1 {
				t.Errorf("memory sync direction T%d->T%d, want T0->T1", c.Src, c.Dst)
			}
			memc = c
		}
	}
	if memc == nil {
		t.Fatal("no memory synchronization in plan")
	}
	wantPts := map[mtcg.Point]bool{
		after(p.Instrs["D"]): true,
		after(p.Instrs["G"]): true,
	}
	if len(memc.Points) != 2 || !wantPts[memc.Points[0]] || !wantPts[memc.Points[1]] {
		t.Errorf("memory sync points = %v, want after D and after G", memc.Points)
	}

	prog, err := mtcg.Generate(plan)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, p2 := range []int64{0, 1} {
		for _, p3 := range []int64{0, 1} {
			_, mt := runBoth(t, p, prog, []int64{7, p2, p3}, 2)
			if mt.Stats.MemSync() == 0 {
				t.Error("expected dynamic memory synchronizations")
			}
		}
	}
}

func TestGenerateRejectsBadPlans(t *testing.T) {
	p := testprog.Fig4()
	g := pdg.Build(p.F, p.Objects)
	plan := mtcg.NaivePlan(p.F, g, p.Assign, 2)

	t.Run("self communication", func(t *testing.T) {
		bad := *plan
		bad.Comms = append([]*mtcg.Comm{}, plan.Comms...)
		bad.Comms = append(bad.Comms, &mtcg.Comm{
			Kind: pdg.KindReg, Reg: p.Regs["r1"], Src: 1, Dst: 1,
			Points: []mtcg.Point{after(p.Instrs["B"])},
		})
		if _, err := mtcg.Generate(&bad); err == nil {
			t.Error("Generate accepted Src==Dst communication")
		}
	})
	t.Run("empty points", func(t *testing.T) {
		bad := *plan
		bad.Comms = append([]*mtcg.Comm{}, plan.Comms...)
		bad.Comms = append(bad.Comms, &mtcg.Comm{
			Kind: pdg.KindReg, Reg: p.Regs["r1"], Src: 0, Dst: 1,
		})
		if _, err := mtcg.Generate(&bad); err == nil {
			t.Error("Generate accepted communication without points")
		}
	})
}

// TestGenerateRejectsBlockThatCannotExit: a never-taken branch into a
// self-loop leaves a block with no immediate post-dominator, so no relevant
// block follows it. Generate answers with an error naming the block instead
// of walking the post-dominator tree off its end.
func TestGenerateRejectsBlockThatCannotExit(t *testing.T) {
	b := ir.NewBuilder("spin")
	p := b.Param()
	pre, spin, exit := b.Block("pre"), b.Block("spin"), b.Block("exit")
	b.Br(p, pre, exit)
	b.SetBlock(pre)
	b.Jump(spin)
	b.SetBlock(spin)
	b.Jump(spin)
	b.SetBlock(exit)
	sum := b.Add(p, p)
	b.Ret(sum)
	if err := b.F.Verify(); err != nil {
		t.Fatal(err)
	}
	assign := map[*ir.Instr]int{}
	b.F.Instrs(func(in *ir.Instr) {
		if in.Block() == exit {
			assign[in] = 1
		}
	})
	plan := mtcg.NaivePlan(b.F, pdg.Build(b.F, nil), assign, 2)
	_, err := mtcg.Generate(plan)
	if err == nil || !strings.Contains(err.Error(), "block pre cannot reach the exit") {
		t.Errorf("Generate: err = %v, want one naming block pre", err)
	}
}

func TestThreadFunctionsShareRegisterSpace(t *testing.T) {
	p := testprog.Fig3()
	prog := naiveProgram(t, p)
	for _, ft := range prog.Threads {
		if ft.MaxReg() < p.F.MaxReg() {
			t.Errorf("thread %s register space %d smaller than original %d",
				ft.Name, ft.MaxReg(), p.F.MaxReg())
		}
		if len(ft.Params) != len(p.F.Params) {
			t.Errorf("thread %s has %d params, want %d", ft.Name, len(ft.Params), len(p.F.Params))
		}
	}
}

func TestSingleThreadPlanIsIdentity(t *testing.T) {
	// Everything in one thread: no communication, thread 0 is the whole
	// program.
	p := testprog.Fig4()
	assign := map[*ir.Instr]int{}
	p.F.Instrs(func(in *ir.Instr) { assign[in] = 0 })
	g := pdg.Build(p.F, p.Objects)
	plan := mtcg.NaivePlan(p.F, g, assign, 1)
	if len(plan.Comms) != 0 {
		t.Errorf("single-thread plan has communications: %v", plan.Comms)
	}
	prog, err := mtcg.Generate(plan)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	st, err := interp.Run(p.F, nil, nil, 1_000_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mt, err := interp.RunMT(interp.MTConfig{
		Threads: prog.Threads, Assign: assign, MaxSteps: 1_000_000,
	})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	if st.LiveOuts[0] != mt.LiveOuts[0] {
		t.Errorf("live-outs differ: %v vs %v", st.LiveOuts, mt.LiveOuts)
	}
	if mt.Stats.Comm() != 0 {
		t.Errorf("single-thread run executed %d comm instructions", mt.Stats.Comm())
	}
}

// TestGenerateIsRepeatable: two generations of one plan are the same code,
// thread for thread — instruction IDs, queues and Orig links included — which
// is what lets a pipeline measure a COCO program that came out as the naive
// one only once. Threads of one program are not each other's code.
func TestGenerateIsRepeatable(t *testing.T) {
	for _, p := range []*testprog.Prog{testprog.Fig3(), testprog.Fig4()} {
		a, b := naiveProgram(t, p), naiveProgram(t, p)
		for i, ft := range a.Threads {
			if !ft.SameCode(b.Threads[i]) {
				t.Errorf("thread %d differs between two generations of one plan:\n%s\n%s", i, ft, b.Threads[i])
			}
		}
		if a.Threads[0].SameCode(a.Threads[1]) {
			t.Errorf("the two threads of one program are the same code:\n%s", a.Threads[0])
		}
	}
}

// TestGenerateSharesPostDominators: a plan built from a PDG carries the
// graph's post-dominator tree, and a plan without one, as a hand-built plan
// has, generates the same code from a tree Generate computes itself.
func TestGenerateSharesPostDominators(t *testing.T) {
	for _, p := range []*testprog.Prog{testprog.Fig3(), testprog.Fig4(), testprog.Fig5()} {
		g := pdg.Build(p.F, p.Objects)
		plan := mtcg.NaivePlan(p.F, g, p.Assign, 2)
		if plan.PostDom == nil || plan.PostDom != g.PostDom {
			t.Fatalf("%s: the naive plan does not carry the graph's post-dominator tree", p.F.Name)
		}
		shared, err := mtcg.Generate(plan)
		if err != nil {
			t.Fatalf("%s: %v", p.F.Name, err)
		}
		bare := *plan
		bare.PostDom = nil
		own, err := mtcg.Generate(&bare)
		if err != nil {
			t.Fatalf("%s without a tree: %v", p.F.Name, err)
		}
		for i, ft := range shared.Threads {
			if !ft.SameCode(own.Threads[i]) {
				t.Errorf("%s thread %d differs with a computed tree:\n%s\n%s", p.F.Name, i, ft, own.Threads[i])
			}
		}
	}
}
