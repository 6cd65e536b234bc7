package sim

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mtcg"
)

// faultPair builds a one-queue producer/consumer pair exchanging n values.
func faultPair(n int64) []*ir.Function {
	mk := func(producer bool) *ir.Function {
		f := ir.NewFunction("t")
		f.NumQueues = 1
		entry := f.NewBlock("entry")
		loop := f.NewBlock("loop")
		exit := f.NewBlock("exit")
		i := f.NewReg()
		one := f.NewReg()
		lim := f.NewReg()
		c := f.NewReg()
		ci := f.NewInstr(ir.Const, i)
		c1 := f.NewInstr(ir.Const, one)
		c1.Imm = 1
		cl := f.NewInstr(ir.Const, lim)
		cl.Imm = n
		entry.Append(ci)
		entry.Append(c1)
		entry.Append(cl)
		entry.Append(f.NewInstr(ir.Jump, ir.NoReg))
		entry.SetSuccs(loop)
		var comm *ir.Instr
		if producer {
			comm = f.NewInstr(ir.Produce, ir.NoReg, i)
		} else {
			comm = f.NewInstr(ir.Consume, f.NewReg())
		}
		comm.Queue = 0
		loop.Append(comm)
		loop.Append(f.NewInstr(ir.Add, i, i, one))
		loop.Append(f.NewInstr(ir.CmpLT, c, i, lim))
		loop.Append(f.NewInstr(ir.Br, ir.NoReg, c))
		loop.SetSuccs(loop, exit)
		exit.Append(f.NewInstr(ir.Ret, ir.NoReg))
		return f
	}
	return []*ir.Function{mk(true), mk(false)}
}

// faultMutant returns the spec's mutant of faultPair(n), wrapped as MTCG
// output: both threads copy the producer's three blocks, executed as a
// single-threaded run of the loop would.
func faultMutant(t *testing.T, n int64, spec fault.Spec) *mtcg.Program {
	t.Helper()
	threads := faultPair(n)
	orig := threads[0]
	entry, loop, exit := orig.Blocks[0], orig.Blocks[1], orig.Blocks[2]
	prof := ir.NewProfile(orig)
	prof.AddEdge(entry, loop, 1)
	prof.AddEdge(loop, loop, n-1)
	prof.AddEdge(loop, exit, 1)
	prog := &mtcg.Program{Orig: orig, Threads: threads, NumQueues: 1, NumThreads: 2,
		Origins: [][]*ir.Block{orig.Blocks, orig.Blocks}}
	mut, _, ok, err := fault.Mutate(prog, prof, spec)
	if !ok || err != nil {
		t.Fatalf("no %s mutant: ok=%v err=%v", spec, ok, err)
	}
	return mut
}

// TestSimBadProgramRejected: comm instructions referencing queues outside
// the program's range are caught up front as ErrBadProgram.
func TestSimBadProgramRejected(t *testing.T) {
	f := ir.NewFunction("bad")
	f.NumQueues = 2
	e := f.NewBlock("entry")
	cons := f.NewInstr(ir.Consume, f.NewReg())
	cons.Queue = 7
	e.Append(cons)
	e.Append(f.NewInstr(ir.Ret, ir.NoReg))
	if _, err := Run(DefaultConfig(), []*ir.Function{f}, nil, nil, 1000); !errors.Is(err, ErrBadProgram) {
		t.Errorf("err = %v, want ErrBadProgram", err)
	}
}

// TestSimUnsoundFunction: the simulator takes functions nobody verified
// (gmtserve times a client's inline IR single-threaded). A block without a
// terminator that the run never reaches changes nothing — same cycles as the
// sound function — and one it does reach ends in ErrCycleLimit: the decoded
// stream holds a trap there, where the block walk indexed out of range.
func TestSimUnsoundFunction(t *testing.T) {
	mk := func(open, reach bool) *ir.Function {
		f := ir.NewFunction("unsound")
		entry, side, exit := f.NewBlock("entry"), f.NewBlock("side"), f.NewBlock("exit")
		c := f.NewReg()
		ci := f.NewInstr(ir.Const, c)
		if reach {
			ci.Imm = 1
		}
		entry.Append(ci)
		entry.Append(f.NewInstr(ir.Br, ir.NoReg, c))
		entry.SetSuccs(side, exit)
		side.Append(f.NewInstr(ir.Nop, ir.NoReg))
		if !open {
			side.Append(f.NewInstr(ir.Jump, ir.NoReg))
			side.SetSuccs(exit)
		}
		exit.Append(f.NewInstr(ir.Ret, ir.NoReg, c))
		return f
	}
	sound, err := RunSingle(DefaultConfig(), mk(false, false), nil, nil, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	unreached, err := RunSingle(DefaultConfig(), mk(true, false), nil, nil, 10_000)
	if err != nil {
		t.Fatalf("open block never reached: %v", err)
	}
	if unreached.Cycles != sound.Cycles || unreached.LiveOuts[0] != 0 {
		t.Errorf("open block never reached: %d cycles, live-outs %v; the sound function takes %d",
			unreached.Cycles, unreached.LiveOuts, sound.Cycles)
	}
	// Every loop spins on the trap, not only the unobserved one: an observed
	// run (stepCore) too.
	events := 0
	for _, tc := range []struct {
		name string
		ob   *Observer
	}{
		{"plain", nil},
		{"observed", &Observer{Attr: true, Events: func(Event) { events++ }}},
	} {
		_, err := RunObserved(DefaultConfig(), []*ir.Function{mk(true, true)}, nil, nil, 10_000, tc.ob)
		if !errors.Is(err, ErrCycleLimit) {
			t.Errorf("open block reached, %s: err = %v, want ErrCycleLimit", tc.name, err)
		}
	}
	if events == 0 {
		t.Error("observed run streamed no events")
	}
}

// TestSimInjectDropStalls: a drop mutant starves the consumer core; with a
// low stall limit the watchdog converts the silent hang into a named
// no-progress error instead of burning the full cycle budget.
func TestSimInjectDropStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StallLimit = 10_000
	mut := faultMutant(t, 2000, fault.Spec{Class: fault.DropProduce, Seed: 1})
	if _, err := RunObserved(cfg, mut.Threads, nil, nil, 50_000_000, nil); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
}

// TestSimInjectShrinkTolerated: the halved queue capacity adds
// back-pressure only; the run still completes with every value delivered.
func TestSimInjectShrinkTolerated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCap = fault.Spec{Class: fault.ShrinkQueue, Seed: 1}.QueueCap(32)
	res, err := Run(cfg, faultPair(500), nil, nil, 10_000_000)
	if err != nil {
		t.Fatalf("shrunk queue must be tolerated, got %v", err)
	}
	if res.PerQueue[0].Consumed != 500 {
		t.Errorf("consumed %d values, want 500", res.PerQueue[0].Consumed)
	}
	if res.PerQueue[0].HighWater > 16 {
		t.Errorf("high-water %d exceeds the shrunken capacity 16", res.PerQueue[0].HighWater)
	}
}

// TestSimInjectDeterministic: the same spec yields the same mutant and the
// same cycle count, run after run.
func TestSimInjectDeterministic(t *testing.T) {
	run := func() (*Result, string) {
		mut := faultMutant(t, 300, fault.Spec{Class: fault.DupProduce, Seed: 11})
		cfg := DefaultConfig()
		cfg.StallLimit = 10_000
		res, _ := Run(cfg, mut.Threads, nil, nil, 10_000_000)
		return res, mut.Threads[0].String() + mut.Threads[1].String()
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1 != s2 {
		t.Errorf("mutants differ:\n%s\nvs\n%s", s1, s2)
	}
	if (r1 == nil) != (r2 == nil) {
		t.Fatal("one run failed, the other succeeded")
	}
	if r1 != nil && r1.Cycles != r2.Cycles {
		t.Errorf("cycle counts differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
}
