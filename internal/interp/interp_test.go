package interp

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/ir"
)

func TestRunArithmetic(t *testing.T) {
	// Exercise every ALU opcode through the interpreter.
	b := ir.NewBuilder("alu")
	x := b.Param()
	y := b.Param()

	outs := []ir.Reg{
		b.Add(x, y), b.Sub(x, y), b.Mul(x, y), b.Div(x, y), b.Rem(x, y),
		b.And(x, y), b.Or(x, y), b.Xor(x, y),
		b.Shl(x, b.Const(2)), b.Shr(x, b.Const(1)),
		b.Neg(x), b.Op1(ir.Not, x), b.Abs(b.Neg(x)),
		b.CmpEQ(x, y), b.CmpNE(x, y), b.CmpLT(x, y), b.CmpLE(x, y),
		b.CmpGT(x, y), b.CmpGE(x, y),
	}
	b.Ret(outs...)

	res, err := Run(b.F, []int64{20, 6}, nil, 1000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int64{
		26, 14, 120, 3, 2,
		4, 22, 18,
		80, 10,
		-20, ^int64(20), 20,
		0, 1, 0, 0, 1, 1,
	}
	for i, w := range want {
		if res.LiveOuts[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, res.LiveOuts[i], w)
		}
	}
}

func TestRunFloatingPoint(t *testing.T) {
	b := ir.NewBuilder("fp")
	x := b.FConst(2.25)
	y := b.FConst(4.0)
	sum := b.FAdd(x, y)
	quot := b.FDiv(y, x)
	root := b.Op1(ir.FSqrt, y)
	asInt := b.FtoI(sum)
	roundTrip := b.FtoI(b.ItoF(b.Const(17)))
	lt := b.FCmpLT(x, y)
	b.Ret(asInt, roundTrip, lt, b.FtoI(quot), b.FtoI(root))

	res, err := Run(b.F, nil, nil, 1000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int64{6, 17, 1, 1, 2}
	for i, w := range want {
		if res.LiveOuts[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, res.LiveOuts[i], w)
		}
	}
}

func TestRunDivByZeroIsDefined(t *testing.T) {
	b := ir.NewBuilder("div0")
	z := b.Const(0)
	x := b.Const(5)
	b.Ret(b.Div(x, z), b.Rem(x, z))
	res, err := Run(b.F, nil, nil, 100)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.LiveOuts[0] != 0 || res.LiveOuts[1] != 0 {
		t.Errorf("div/rem by zero = %v, want [0 0]", res.LiveOuts)
	}
}

func TestRunStepLimit(t *testing.T) {
	b := ir.NewBuilder("spin")
	loop := b.Block("loop")
	b.Jump(loop)
	b.SetBlock(loop)
	one := b.Const(1)
	b.Br(one, loop, loop) // never terminates
	_, err := Run(b.F, nil, nil, 500)
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestRunWrongArity(t *testing.T) {
	b := ir.NewBuilder("arity")
	p := b.Param()
	b.Ret(p)
	if _, err := Run(b.F, nil, nil, 100); err == nil {
		t.Error("missing args accepted")
	}
	if _, err := Run(b.F, []int64{1, 2}, nil, 100); err == nil {
		t.Error("extra args accepted")
	}
}

func TestRunMemoryFault(t *testing.T) {
	b := ir.NewBuilder("oob")
	a := b.Const(50)
	v := b.Load(a, 0)
	b.Ret(v)
	if _, err := Run(b.F, nil, make(Memory, 10), 100); err == nil {
		t.Error("out-of-range load accepted")
	}
}

func TestRunProfileCountsEdges(t *testing.T) {
	b := ir.NewBuilder("prof")
	loop := b.Block("loop")
	exit := b.Block("exit")
	i := b.F.NewReg()
	b.ConstTo(i, 0)
	b.Jump(loop)
	b.SetBlock(loop)
	one := b.Const(1)
	b.Op2To(i, ir.Add, i, one)
	lim := b.Const(7)
	c := b.CmpLT(i, lim)
	b.Br(c, loop, exit)
	b.SetBlock(exit)
	b.Ret(i)
	b.F.SplitCriticalEdges()

	res, err := Run(b.F, nil, nil, 10_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w := res.Profile.BlockWeight(loop); w != 7 {
		t.Errorf("loop weight = %d, want 7", w)
	}
	if w := res.Profile.BlockWeight(exit); w != 1 {
		t.Errorf("exit weight = %d, want 1", w)
	}
}

// TestRunProfileOneEntryPerEdge: the profile's tally holds exactly the
// exits taken, and a branch whose two targets are one block counts both of
// its exits in slot 0, so that one edge has one entry.
func TestRunProfileOneEntryPerEdge(t *testing.T) {
	b := ir.NewBuilder("same")
	loop := b.Block("loop")
	join := b.Block("join")
	exit := b.Block("exit")
	i := b.F.NewReg()
	b.ConstTo(i, 0)
	b.Jump(loop)
	b.SetBlock(loop)
	b.Op2To(i, ir.Add, i, b.Const(1))
	odd := b.And(i, b.Const(1))
	b.Br(odd, join, join)
	b.SetBlock(join)
	b.Br(b.CmpLT(i, b.Const(5)), loop, exit)
	b.SetBlock(exit)
	b.Ret(i)
	if err := b.F.Verify(); err != nil {
		t.Fatal(err)
	}

	res, err := Run(b.F, nil, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// entry jumps to loop once; loop's branch reaches join five times
	// (three taken, two not); join loops back four times and exits once.
	want := [][2]int64{{1, 0}, {5, 0}, {4, 1}, {0, 0}}
	if !slices.Equal(res.Profile.Exits, want) {
		t.Errorf("profile = %v, want %v", res.Profile.Exits, want)
	}
	if w := res.Profile.EdgeWeight(loop, join); w != 5 {
		t.Errorf("EdgeWeight(loop, join) = %d, want 5", w)
	}
}

// mtPair builds a two-thread ping-pong program exchanging n values.
func mtPair(n int64, capOK bool) ([]*ir.Function, int) {
	mk := func(producer bool) *ir.Function {
		f := ir.NewFunction("t")
		f.NumQueues = 2
		entry := f.NewBlock("entry")
		loop := f.NewBlock("loop")
		exit := f.NewBlock("exit")
		i := f.NewReg()
		one := f.NewReg()
		lim := f.NewReg()
		c := f.NewReg()
		v := f.NewReg()
		ci := f.NewInstr(ir.Const, i)
		entry.Append(ci)
		c1 := f.NewInstr(ir.Const, one)
		c1.Imm = 1
		entry.Append(c1)
		cl := f.NewInstr(ir.Const, lim)
		cl.Imm = n
		entry.Append(cl)
		entry.Append(f.NewInstr(ir.Jump, ir.NoReg))
		entry.SetSuccs(loop)
		if producer {
			p := f.NewInstr(ir.Produce, ir.NoReg, i)
			p.Queue = 0
			loop.Append(p)
			cons := f.NewInstr(ir.Consume, v)
			cons.Queue = 1
			loop.Append(cons)
		} else {
			cons := f.NewInstr(ir.Consume, v)
			cons.Queue = 0
			loop.Append(cons)
			p := f.NewInstr(ir.Produce, ir.NoReg, v)
			p.Queue = 1
			loop.Append(p)
		}
		loop.Append(f.NewInstr(ir.Add, i, i, one))
		loop.Append(f.NewInstr(ir.CmpLT, c, i, lim))
		loop.Append(f.NewInstr(ir.Br, ir.NoReg, c))
		loop.SetSuccs(loop, exit)
		ret := f.NewInstr(ir.Ret, ir.NoReg)
		if producer {
			ret.Srcs = []ir.Reg{v}
		}
		exit.Append(ret)
		return f
	}
	_ = capOK
	return []*ir.Function{mk(true), mk(false)}, 2
}

func TestRunMTPingPong(t *testing.T) {
	threads, nq := mtPair(100, true)
	res, err := RunMT(MTConfig{Threads: threads, NumQueues: nq, MaxSteps: 100_000})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	// The producer gets its own last value echoed back: 99.
	if len(res.LiveOuts) != 1 || res.LiveOuts[0] != 99 {
		t.Errorf("live-outs = %v, want [99]", res.LiveOuts)
	}
	if res.Stats.Produce != 200 || res.Stats.Consume != 200 {
		t.Errorf("produce/consume = %d/%d, want 200/200", res.Stats.Produce, res.Stats.Consume)
	}
}

func TestRunMTDeadlockDetected(t *testing.T) {
	// Both threads consume first from queues only the other fills later:
	// guaranteed deadlock.
	mk := func(consumeQ, produceQ int) *ir.Function {
		f := ir.NewFunction("dead")
		f.NumQueues = 2
		e := f.NewBlock("entry")
		v := f.NewReg()
		cons := f.NewInstr(ir.Consume, v)
		cons.Queue = consumeQ
		e.Append(cons)
		p := f.NewInstr(ir.Produce, ir.NoReg, v)
		p.Queue = produceQ
		e.Append(p)
		e.Append(f.NewInstr(ir.Ret, ir.NoReg))
		return f
	}
	_, err := RunMT(MTConfig{
		Threads:   []*ir.Function{mk(0, 1), mk(1, 0)},
		NumQueues: 2,
		MaxSteps:  10_000,
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

func TestRunMTQueueCapacityBlocks(t *testing.T) {
	// Producer floods 100 values; consumer drains them all. With capacity
	// 1 the run still completes (blocking produce).
	threads, nq := mtPair(100, true)
	res, err := RunMT(MTConfig{Threads: threads, NumQueues: nq, QueueCap: 1, MaxSteps: 100_000})
	if err != nil {
		t.Fatalf("RunMT cap=1: %v", err)
	}
	if res.LiveOuts[0] != 99 {
		t.Errorf("live-out = %d, want 99", res.LiveOuts[0])
	}
}

func TestCommStatsArithmetic(t *testing.T) {
	s := CommStats{Compute: 10, Produce: 2, Consume: 3, ProduceSync: 4, ConsumeSync: 5, DupBranch: 6}
	if s.Comm() != 14 {
		t.Errorf("Comm = %d, want 14", s.Comm())
	}
	if s.MemSync() != 9 {
		t.Errorf("MemSync = %d, want 9", s.MemSync())
	}
	if s.Total() != 30 {
		t.Errorf("Total = %d, want 30", s.Total())
	}
	var sum CommStats
	sum.Add(s)
	sum.Add(s)
	if sum.Total() != 60 {
		t.Errorf("Add: total = %d, want 60", sum.Total())
	}
}
