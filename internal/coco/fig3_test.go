package coco_test

import (
	"testing"

	"repro/internal/coco"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/pdg"
	"repro/internal/testprog"
)

// plan runs COCO with default options on a fixture.
func plan(t *testing.T, p *testprog.Prog, opts coco.Options) *mtcg.Plan {
	t.Helper()
	g := pdg.Build(p.F, p.Objects)
	pl, err := coco.Plan(p.F, g, p.Assign, 2, p.Profile, opts)
	if err != nil {
		t.Fatalf("coco.Plan: %v", err)
	}
	if pl.PostDom == nil || pl.PostDom != g.PostDom {
		t.Fatal("coco.Plan does not carry the graph's post-dominator tree")
	}
	return pl
}

// generate materializes a plan, verifying every thread function.
func generate(t *testing.T, pl *mtcg.Plan) *mtcg.Program {
	t.Helper()
	prog, err := mtcg.Generate(pl)
	if err != nil {
		t.Fatalf("mtcg.Generate: %v", err)
	}
	for _, ft := range prog.Threads {
		if err := ft.Verify(); err != nil {
			t.Fatalf("thread %s invalid: %v\n%s", ft.Name, err, ft)
		}
	}
	return prog
}

// findComm locates the communication of a register (or memory when reg is
// NoReg) in a plan.
func findComm(pl *mtcg.Plan, reg ir.Reg) *mtcg.Comm {
	for _, c := range pl.Comms {
		if reg == ir.NoReg && c.Kind == pdg.KindMem {
			return c
		}
		if reg != ir.NoReg && c.Kind == pdg.KindReg && c.Reg == reg {
			return c
		}
	}
	return nil
}

func TestFig3MinCutAtB3Entry(t *testing.T) {
	p := testprog.Fig3()
	pl := plan(t, p, coco.DefaultOptions())

	// The paper: "arc (B3entry -> F) alone forms a min-cut, with a cost
	// of 10" — the communication of r1 moves to the start of B3.
	c := findComm(pl, p.Regs["r1"])
	if c == nil {
		t.Fatalf("no r1 communication: %v", pl.Comms)
	}
	want := mtcg.Point{Block: p.Blocks["B3"], Index: 0}
	if len(c.Points) != 1 || c.Points[0] != want {
		t.Fatalf("r1 placed at %v, want [%v]", c.Points, want)
	}

	// Branch D no longer becomes relevant to thread 2, so r2 need not be
	// communicated at all.
	if c2 := findComm(pl, p.Regs["r2"]); c2 != nil {
		t.Errorf("r2 still communicated: %v", c2)
	}
	if pl.Relevant[1][p.Blocks["B2"].ID] {
		t.Error("branch D (B2) should not be relevant to thread 2 after COCO")
	}
	// The loop-back branch G stays relevant (it controls F).
	if !pl.Relevant[1][p.Blocks["B3"].ID] {
		t.Error("loop branch G (B3) must stay relevant to thread 2")
	}
}

func TestFig3ThreadTwoLosesInnerBlocks(t *testing.T) {
	p := testprog.Fig3()
	prog := generate(t, plan(t, p, coco.DefaultOptions()))

	t1 := prog.Threads[1]
	for _, name := range []string{"B2", "B2e"} {
		if t1.BlockByName(name) != nil {
			t.Errorf("thread 2 still contains block %s after COCO:\n%s", name, t1)
		}
	}
	for _, name := range []string{"entry", "B3", "exit"} {
		if t1.BlockByName(name) == nil {
			t.Errorf("thread 2 lost required block %s:\n%s", name, t1)
		}
	}
}

func TestFig3EquivalenceAndReduction(t *testing.T) {
	p := testprog.Fig3()
	g := pdg.Build(p.F, p.Objects)

	naive, err := mtcg.Generate(mtcg.NaivePlan(p.F, g, p.Assign, 2))
	if err != nil {
		t.Fatalf("naive Generate: %v", err)
	}
	opt := generate(t, plan(t, p, coco.DefaultOptions()))

	for _, args := range [][]int64{{5, 1, 0}, {5, 0, 0}, {-3, 1, 0}} {
		st, err := interp.Run(p.F, args, nil, 1_000_000)
		if err != nil {
			t.Fatalf("ST run: %v", err)
		}
		var counts []int64
		for _, prog := range []*mtcg.Program{naive, opt} {
			mt, err := interp.RunMT(interp.MTConfig{
				Threads: prog.Threads, NumQueues: prog.NumQueues,
				Assign: p.Assign, Args: args, MaxSteps: 1_000_000,
			})
			if err != nil {
				t.Fatalf("MT run: %v", err)
			}
			if len(mt.LiveOuts) != 1 || mt.LiveOuts[0] != st.LiveOuts[0] {
				t.Errorf("args %v: MT live-outs %v, ST %v", args, mt.LiveOuts, st.LiveOuts)
			}
			counts = append(counts, mt.Stats.Comm())
		}
		if counts[1] > counts[0] {
			t.Errorf("args %v: COCO increased communication: naive %d, COCO %d",
				args, counts[0], counts[1])
		}
	}
}
