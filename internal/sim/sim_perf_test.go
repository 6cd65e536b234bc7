package sim

import (
	"reflect"
	"testing"

	"repro/internal/ir"
)

// mkProdCons builds a producer or consumer loop over queue q with n
// iterations. The consumer burns latency on dependent multiplies so a
// shallow queue backs up, exercising queue-full and queue-empty blocks on
// both the memoized fast path and the attribution path.
func mkProdCons(n int64, q int, produce bool, numQueues int) *ir.Function {
	b := ir.NewBuilder("t")
	loop, exit := b.Block("loop"), b.Block("exit")
	i := b.F.NewReg()
	b.ConstTo(i, 0)
	b.Jump(loop)
	b.SetBlock(loop)
	if produce {
		b.F.Name = "prod"
		p := b.F.NewInstr(ir.Produce, ir.NoReg, i)
		p.Queue = q
		b.Cur().Append(p)
	} else {
		b.F.Name = "cons"
		v := b.F.NewReg()
		cn := b.F.NewInstr(ir.Consume, v)
		cn.Queue = q
		b.Cur().Append(cn)
		v2 := b.Op2(ir.Mul, v, v)
		v3 := b.Op2(ir.Mul, v2, v2)
		_ = b.Op2(ir.Mul, v3, v3)
	}
	one := b.Const(1)
	b.Op2To(i, ir.Add, i, one)
	lim := b.Const(n)
	c := b.CmpLT(i, lim)
	b.Br(c, loop, exit)
	b.SetBlock(exit)
	b.Ret(i)
	b.F.SplitCriticalEdges()
	b.F.NumQueues = numQueues
	return b.F
}

// mkMixed builds a single-thread loop mixing loads, stores, a multiply
// dependence chain, and a data-dependent alternating branch (worst case
// for the 2-bit predictor), touching the memory, latency, and mispredict
// corners of the issue loop.
func mkMixed(n int64) *ir.Function {
	b := ir.NewBuilder("mixed")
	loop, odd, join, exit := b.Block("loop"), b.Block("odd"), b.Block("join"), b.Block("exit")
	i := b.F.NewReg()
	acc := b.F.NewReg()
	b.ConstTo(i, 0)
	b.ConstTo(acc, 1)
	b.Jump(loop)
	b.SetBlock(loop)
	base := b.Const(0)
	v := b.Load(base, 0)
	m := b.Mul(acc, acc)
	m2 := b.Add(m, v)
	b.Store(m2, base, 1)
	one := b.Const(1)
	par := b.And(i, one)
	b.Br(par, odd, join)
	b.SetBlock(odd)
	b.Op2To(acc, ir.Add, acc, one)
	b.Jump(join)
	b.SetBlock(join)
	b.Op2To(i, ir.Add, i, one)
	lim := b.Const(n)
	c := b.CmpLT(i, lim)
	b.Br(c, loop, exit)
	b.SetBlock(exit)
	b.Ret(i, acc)
	b.F.SplitCriticalEdges()
	return b.F
}

// stripAttr compares everything a Result carries except the attribution
// (present only on the reference run by construction).
func resultsEqual(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles %d vs %d", name, got.Cycles, want.Cycles)
	}
	if !reflect.DeepEqual(got.PerCore, want.PerCore) {
		t.Errorf("%s: per-core stats diverged:\n%+v\n%+v", name, got.PerCore, want.PerCore)
	}
	if !reflect.DeepEqual(got.PerQueue, want.PerQueue) {
		t.Errorf("%s: per-queue stats diverged:\n%+v\n%+v", name, got.PerQueue, want.PerQueue)
	}
	if !reflect.DeepEqual(got.LiveOuts, want.LiveOuts) {
		t.Errorf("%s: live-outs diverged: %v vs %v", name, got.LiveOuts, want.LiveOuts)
	}
	if !reflect.DeepEqual(got.Mem, want.Mem) {
		t.Errorf("%s: final memory diverged", name)
	}
}

// TestStepCoreFastEquivalence pins the trimmed fast path (stepCoreFast +
// runFast: decoded stream, block memos, cycle jumps) against the general
// path (stepCore under attribution, which disables memoization and steps
// every core every cycle). Every workload/config corner must produce
// bit-identical timing, statistics, live-outs, and memory.
func TestStepCoreFastEquivalence(t *testing.T) {
	deep := DefaultConfig()
	deep.QueueCap = 1
	narrow := DefaultConfig()
	narrow.SAPorts = 1
	cases := []struct {
		name    string
		cfg     Config
		threads []*ir.Function
		args    []int64
		mem     []int64
	}{
		{"fig5", DefaultConfig(), fig5Prog(t).Threads, []int64{9, 1, 1}, make([]int64, 2)},
		{"queue-cap-1", deep, []*ir.Function{mkProdCons(300, 0, true, 1), mkProdCons(300, 0, false, 1)}, nil, nil},
		{"sa-ports-1", narrow, []*ir.Function{mkProdCons(200, 0, true, 1), mkProdCons(200, 0, false, 1)}, nil, nil},
		{"mixed-single", DefaultConfig(), []*ir.Function{mkMixed(500)}, nil, make([]int64, 8)},
		{"coherence-pair", DefaultConfig(), []*ir.Function{mkMixed(400), mkMixed(400)}, nil, make([]int64, 8)},
	}
	for _, tc := range cases {
		mem2 := append([]int64(nil), tc.mem...)
		fast, err := Run(tc.cfg, tc.threads, tc.args, tc.mem, 10_000_000)
		if err != nil {
			t.Fatalf("%s: fast run: %v", tc.name, err)
		}
		ref, err := RunObserved(tc.cfg, tc.threads, tc.args, mem2, 10_000_000, &Observer{Attr: true})
		if err != nil {
			t.Fatalf("%s: reference run: %v", tc.name, err)
		}
		resultsEqual(t, tc.name, fast, ref)
	}
}

// TestRunFastDeterministicRepeat re-runs the same simulation many times
// and demands bit-identical results — the work-metric guarantee the bench
// gate relies on.
func TestRunFastDeterministicRepeat(t *testing.T) {
	prog := fig5Prog(t)
	args := []int64{9, 1, 1}
	first, err := Run(DefaultConfig(), prog.Threads, args, make([]int64, 2), 10_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 20; i++ {
		res, err := Run(DefaultConfig(), prog.Threads, args, make([]int64, 2), 10_000_000)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d diverged from first run", i)
		}
	}
}

// TestRunNoObserverAllocsConstant proves the unobserved simulator path
// allocates nothing per cycle: setup (system, cores, caches, decode) costs
// a fixed number of allocations, so a run 50× longer must cost exactly
// the same. Any per-cycle allocation — observer callbacks, event slices,
// attribution buckets — would add thousands and fail the equality.
func TestRunNoObserverAllocsConstant(t *testing.T) {
	cfg := DefaultConfig()
	run := func(n int64) {
		threads := []*ir.Function{
			mkProdCons(n, 0, true, 1),
			mkProdCons(n, 0, false, 1),
		}
		if _, err := Run(cfg, threads, nil, nil, 10_000_000); err != nil {
			t.Fatal(err)
		}
	}
	run(2000) // warm any lazily-grown runtime state
	short := testing.AllocsPerRun(10, func() { run(40) })
	long := testing.AllocsPerRun(10, func() { run(2000) })
	if raceEnabled {
		// The race detector's runtime allocates for its own bookkeeping as
		// a run goes on; the runs above still executed under it.
		t.Skipf("race detector on: ran both lengths (%v and %v allocations), counts not compared", short, long)
	}
	if short != long {
		t.Errorf("allocations scale with cycles: %v for 40 iterations vs %v for 2000", short, long)
	}
}

// BenchmarkRunNoObserver measures the raw unobserved cycle loop (the path
// bench/'s sim.st_ms, sim.naive_ms and sim.coco_ms layers time through the
// full pipeline); run with -benchmem to see the fixed setup-only
// allocation profile.
func BenchmarkRunNoObserver(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		threads := []*ir.Function{
			mkProdCons(10_000, 0, true, 1),
			mkProdCons(10_000, 0, false, 1),
		}
		if _, err := Run(cfg, threads, nil, nil, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
