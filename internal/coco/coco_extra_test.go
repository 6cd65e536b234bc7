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

// TestThreeThreadPlanConverges splits Figure 5's consumer thread in two,
// making the thread graph have multiple arcs, and checks Algorithm 2
// converges and the result executes correctly.
func TestThreeThreadPlanConverges(t *testing.T) {
	p := testprog.Fig5()
	assign := map[*ir.Instr]int{}
	for in, tid := range p.Assign {
		assign[in] = tid
	}
	// Move the B9 block's instructions (K and ret) to a third thread.
	for in := range assign {
		if in.Block() == p.Blocks["B9"] {
			assign[in] = 2
		}
	}
	g := pdg.Build(p.F, p.Objects)
	pl, err := coco.Plan(p.F, g, assign, 3, p.Profile, coco.DefaultOptions())
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	prog, err := mtcg.Generate(pl)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(prog.Threads) != 3 {
		t.Fatalf("%d threads, want 3", len(prog.Threads))
	}
	for _, p2 := range []int64{0, 1} {
		for _, p3 := range []int64{0, 1} {
			args := []int64{7, p2, p3}
			st, err := interp.Run(p.F, args, make(interp.Memory, 2), 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			mt, err := interp.RunMT(interp.MTConfig{
				Threads: prog.Threads, NumQueues: prog.NumQueues, Assign: assign,
				Args: args, Mem: make(interp.Memory, 2), MaxSteps: 1_000_000,
			})
			if err != nil {
				t.Fatalf("p2=%d p3=%d: %v", p2, p3, err)
			}
			for i := range st.LiveOuts {
				if mt.LiveOuts[i] != st.LiveOuts[i] {
					t.Errorf("p2=%d p3=%d: live-out %d: %d vs %d",
						p2, p3, i, mt.LiveOuts[i], st.LiveOuts[i])
				}
			}
		}
	}
}

// TestCyclicThreadGraphConverges builds a partition whose thread graph is
// cyclic (T0 -> T1 and T1 -> T0), which forces the repeat-until loop of
// Algorithm 2 to iterate.
func TestCyclicThreadGraphConverges(t *testing.T) {
	b := ir.NewBuilder("cyc")
	loop := b.Block("loop")
	exit := b.Block("exit")
	x := b.F.NewReg()
	y := b.F.NewReg()
	i := b.F.NewReg()
	b.ConstTo(x, 1)
	b.ConstTo(y, 2)
	b.ConstTo(i, 0)
	b.Jump(loop)
	b.SetBlock(loop)
	b.Op2To(x, ir.Add, x, y) // T0, uses y from T1
	iX := lastInstr(b)
	b.Op2To(y, ir.Add, y, x) // T1, uses x from T0
	iY := lastInstr(b)
	b.Op2To(i, ir.Add, i, b.Const(1))
	c := b.CmpLT(i, b.Const(20))
	b.Br(c, loop, exit)
	b.SetBlock(exit)
	b.Ret(x, y)
	b.F.SplitCriticalEdges()

	assign := map[*ir.Instr]int{}
	b.F.Instrs(func(in *ir.Instr) {
		if in.Op == ir.Jump {
			return
		}
		assign[in] = 0
	})
	assign[iY] = 1

	st, err := interp.Run(b.F, nil, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	g := pdg.Build(b.F, nil)
	pl, err := coco.Plan(b.F, g, assign, 2, st.Profile, coco.DefaultOptions())
	if err != nil {
		t.Fatalf("Plan on cyclic thread graph: %v", err)
	}
	prog, err := mtcg.Generate(pl)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	mt, err := interp.RunMT(interp.MTConfig{
		Threads: prog.Threads, NumQueues: prog.NumQueues, Assign: assign,
		MaxSteps: 100_000,
	})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	for i := range st.LiveOuts {
		if mt.LiveOuts[i] != st.LiveOuts[i] {
			t.Errorf("live-out %d: %d vs %d", i, mt.LiveOuts[i], st.LiveOuts[i])
		}
	}
	_ = iX
}

func lastInstr(b *ir.Builder) *ir.Instr {
	ins := b.Cur().Instrs
	return ins[len(ins)-1]
}

// TestPlanWithoutCommunication checks the degenerate case: a partition
// where nothing crosses threads yields an empty communication plan.
func TestPlanWithoutCommunication(t *testing.T) {
	p := testprog.Fig4()
	assign := map[*ir.Instr]int{}
	p.F.Instrs(func(in *ir.Instr) { assign[in] = 0 })
	g := pdg.Build(p.F, p.Objects)
	pl, err := coco.Plan(p.F, g, assign, 2, p.Profile, coco.DefaultOptions())
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(pl.Comms) != 0 {
		t.Errorf("empty partition produced communications: %v", pl.Comms)
	}
}
