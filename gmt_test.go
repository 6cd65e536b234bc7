package gmt_test

import (
	"context"
	"errors"
	"testing"

	gmt "repro"
	"repro/internal/ir"
	"repro/internal/pdg"
	"repro/internal/workloads"
)

// buildSumKernel makes a small region: sum of an array with a conditional
// (only positive elements), exercising hammocks and a loop.
func buildSumKernel() (*gmt.Function, []gmt.MemObject, gmt.MemObject) {
	b := gmt.NewBuilder("sumpos")
	arr := b.Array("arr", 64)
	n := b.Param()
	loop := b.Block("loop")
	add := b.Block("add")
	latch := b.Block("latch")
	exit := b.Block("exit")
	i := b.F.NewReg()
	sum := b.F.NewReg()
	b.ConstTo(i, 0)
	b.ConstTo(sum, 0)
	b.Jump(loop)
	b.SetBlock(loop)
	v := b.Load(b.Add(b.AddrOf(arr), i), 0)
	b.Br(b.CmpGT(v, b.Const(0)), add, latch)
	b.SetBlock(add)
	b.Op2To(sum, ir.Add, sum, v)
	b.Jump(latch)
	b.SetBlock(latch)
	b.Op2To(i, ir.Add, i, b.Const(1))
	b.Br(b.CmpLT(i, n), loop, exit)
	b.SetBlock(exit)
	b.Ret(sum)
	b.F.SplitCriticalEdges()
	return b.F, b.Objects, arr
}

func sumInput(arr gmt.MemObject) ([]int64, []int64) {
	mem := make([]int64, 64)
	for k := range mem {
		mem[k] = int64(k%7) - 3
	}
	return []int64{64}, mem
}

func TestParallelizeFacadeEndToEnd(t *testing.T) {
	f, objs, arr := buildSumKernel()
	args, mem := sumInput(arr)

	want, _, err := gmt.ExecuteSingle(f, args, append([]int64(nil), mem...))
	if err != nil {
		t.Fatalf("ExecuteSingle: %v", err)
	}

	for _, sched := range []gmt.Scheduler{gmt.SchedulerDSWP, gmt.SchedulerGREMIO} {
		for _, useCoco := range []bool{false, true} {
			res, err := gmt.Parallelize(f, objs, gmt.Config{
				Scheduler: sched,
				COCO:      useCoco,
				Profile:   gmt.ProfileInput{Args: args, Mem: append([]int64(nil), mem...)},
			})
			if err != nil {
				t.Fatalf("%s coco=%v: Parallelize: %v", sched, useCoco, err)
			}
			if len(res.Threads) != 2 {
				t.Fatalf("%s: %d threads, want 2", sched, len(res.Threads))
			}
			out, err := gmt.Execute(res, args, append([]int64(nil), mem...))
			if err != nil {
				t.Fatalf("%s coco=%v: Execute: %v", sched, useCoco, err)
			}
			if len(out.LiveOuts) != 1 || out.LiveOuts[0] != want[0] {
				t.Errorf("%s coco=%v: live-out %v, want %v", sched, useCoco, out.LiveOuts, want)
			}
		}
	}
}

func TestParallelizeRejectsUnknownScheduler(t *testing.T) {
	f, objs, arr := buildSumKernel()
	args, mem := sumInput(arr)
	_, err := gmt.Parallelize(f, objs, gmt.Config{
		Scheduler: "nope",
		Profile:   gmt.ProfileInput{Args: args, Mem: mem},
	})
	if err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// roundRobin is a deliberately bad partitioner used to prove that MTCG
// generates correct code for any partition (the paper's central claim for
// MTCG) and that custom partitioners plug into the facade.
type roundRobin struct{}

func (roundRobin) Name() string { return "round-robin" }

func (roundRobin) Partition(f *ir.Function, g *pdg.Graph, prof *ir.Profile, n int) (map[*ir.Instr]int, error) {
	assign := map[*ir.Instr]int{}
	i := 0
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.Jump || in.Op == ir.Nop {
			return
		}
		assign[in] = i % n
		i++
	})
	return assign, nil
}

func TestCustomPartitionerAnyPartitionIsCorrect(t *testing.T) {
	f, objs, arr := buildSumKernel()
	args, mem := sumInput(arr)
	want, _, err := gmt.ExecuteSingle(f, args, append([]int64(nil), mem...))
	if err != nil {
		t.Fatalf("ExecuteSingle: %v", err)
	}
	for _, useCoco := range []bool{false, true} {
		res, err := gmt.Parallelize(f, objs, gmt.Config{
			Custom:  roundRobin{},
			COCO:    useCoco,
			Profile: gmt.ProfileInput{Args: args, Mem: append([]int64(nil), mem...)},
		})
		if err != nil {
			t.Fatalf("coco=%v: Parallelize: %v", useCoco, err)
		}
		out, err := gmt.Execute(res, args, append([]int64(nil), mem...))
		if err != nil {
			t.Fatalf("coco=%v: Execute: %v", useCoco, err)
		}
		if out.LiveOuts[0] != want[0] {
			t.Errorf("coco=%v: live-out %d, want %d", useCoco, out.LiveOuts[0], want[0])
		}
	}
}

func TestSimulateSpeedupPlausible(t *testing.T) {
	w, err := workloads.ByName("435.gromacs")
	if err != nil {
		t.Fatal(err)
	}
	train := w.Train()
	res, err := gmt.Parallelize(w.F, w.Objects, gmt.Config{
		Scheduler: gmt.SchedulerDSWP,
		COCO:      true,
		Profile:   gmt.ProfileInput{Args: train.Args, Mem: train.Mem},
	})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	cfg := gmt.DefaultMachine()
	ref := w.Ref()
	st, err := gmt.SimulateSingle(w.F, cfg, ref.Args, append([]int64(nil), ref.Mem...))
	if err != nil {
		t.Fatalf("SimulateSingle: %v", err)
	}
	mt, err := gmt.Simulate(res, cfg, ref.Args, append([]int64(nil), ref.Mem...))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	speedup := float64(st) / float64(mt)
	if speedup < 0.5 || speedup > 2.5 {
		t.Errorf("implausible dual-core speedup %.2fx (ST %d cycles, MT %d)", speedup, st, mt)
	}
}

func TestKeepPerDepQueuesOption(t *testing.T) {
	f, objs, arr := buildSumKernel()
	args, mem := sumInput(arr)
	base := gmt.Config{
		Scheduler: gmt.SchedulerGREMIO,
		COCO:      true,
		Profile:   gmt.ProfileInput{Args: args, Mem: append([]int64(nil), mem...)},
	}
	merged, err := gmt.Parallelize(f, objs, base)
	if err != nil {
		t.Fatal(err)
	}
	raw := base
	raw.Profile = gmt.ProfileInput{Args: args, Mem: append([]int64(nil), mem...)}
	raw.KeepPerDepQueues = true
	perDep, err := gmt.Parallelize(f, objs, raw)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumQueues > perDep.NumQueues {
		t.Errorf("allocation increased queues: %d > %d", merged.NumQueues, perDep.NumQueues)
	}
	if perDep.NumQueues != perDep.CommCount() {
		t.Errorf("per-dependence queues: %d queues for %d comms",
			perDep.NumQueues, perDep.CommCount())
	}
	// Both still execute correctly.
	for _, res := range []*gmt.Result{merged, perDep} {
		out, err := gmt.Execute(res, args, append([]int64(nil), mem...))
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := gmt.ExecuteSingle(f, args, append([]int64(nil), mem...))
		if out.LiveOuts[0] != want[0] {
			t.Errorf("result %d, want %d", out.LiveOuts[0], want[0])
		}
	}
}

func TestResultAccessors(t *testing.T) {
	f, objs, arr := buildSumKernel()
	args, mem := sumInput(arr)
	res, err := gmt.Parallelize(f, objs, gmt.Config{
		Profile: gmt.ProfileInput{Args: args, Mem: mem},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Original() != f {
		t.Error("Original() does not return the input region")
	}
	if len(res.Objects()) != len(objs) {
		t.Error("Objects() wrong length")
	}
	if res.Profile == nil {
		t.Error("Profile missing")
	}
}

// TestParallelizeAllMatchesSerial fans several independent regions out
// over the worker pool and checks each result behaves identically to a
// serial Parallelize of the same region.
func TestParallelizeAllMatchesSerial(t *testing.T) {
	var jobs []gmt.Job
	var inputs [][2][]int64
	for i := 0; i < 6; i++ {
		f, objs, arr := buildSumKernel()
		args, mem := sumInput(arr)
		sched := gmt.SchedulerDSWP
		if i%2 == 1 {
			sched = gmt.SchedulerGREMIO
		}
		jobs = append(jobs, gmt.Job{F: f, Objects: objs, Config: gmt.Config{
			Scheduler: sched,
			COCO:      true,
			Profile:   gmt.ProfileInput{Args: args, Mem: append([]int64(nil), mem...)},
		}})
		inputs = append(inputs, [2][]int64{args, mem})
	}

	results, err := gmt.ParallelizeAll(context.Background(), 4, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results, want %d", len(results), len(jobs))
	}
	for i, res := range results {
		args, mem := inputs[i][0], inputs[i][1]
		want, _, err := gmt.ExecuteSingle(jobs[i].F, args, append([]int64(nil), mem...))
		if err != nil {
			t.Fatal(err)
		}
		out, err := gmt.Execute(res, args, append([]int64(nil), mem...))
		if err != nil {
			t.Fatalf("region %d: %v", i, err)
		}
		if out.LiveOuts[0] != want[0] {
			t.Errorf("region %d: result %d, want %d", i, out.LiveOuts[0], want[0])
		}
	}
}

// TestParallelizeAllCancelled checks a cancelled context aborts the fan-out.
func TestParallelizeAllCancelled(t *testing.T) {
	f, objs, arr := buildSumKernel()
	args, mem := sumInput(arr)
	jobs := []gmt.Job{{F: f, Objects: objs, Config: gmt.Config{
		Profile: gmt.ProfileInput{Args: args, Mem: mem},
	}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gmt.ParallelizeAll(ctx, 2, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConfigBudgetEnforced checks the Budget option reaches the profiler.
func TestConfigBudgetEnforced(t *testing.T) {
	f, objs, arr := buildSumKernel()
	args, mem := sumInput(arr)
	_, err := gmt.Parallelize(f, objs, gmt.Config{
		Profile: gmt.ProfileInput{Args: args, Mem: mem},
		Budget:  gmt.Budget{ProfileSteps: 5},
	})
	if err == nil {
		t.Fatal("want step-limit error under a 5-step budget")
	}
}

// TestUnverifiedRegionRejected: the public API checks its input before it
// runs it. A region whose reached block has no terminator (the shape
// gmtserve answers 400 for) panicked the profile run; now Parallelize and
// ExecuteSingle name Verify's complaint instead.
func TestUnverifiedRegionRejected(t *testing.T) {
	f := ir.NewFunction("open")
	entry, side, exit := f.NewBlock("entry"), f.NewBlock("side"), f.NewBlock("exit")
	c := f.NewReg()
	one := f.NewInstr(ir.Const, c)
	one.Imm = 1
	entry.Append(one)
	entry.Append(f.NewInstr(ir.Br, ir.NoReg, c))
	entry.SetSuccs(side, exit)
	side.Append(f.NewInstr(ir.Add, f.NewReg(), c, c))
	exit.Append(f.NewInstr(ir.Ret, ir.NoReg, c))

	const want = "gmt: verifying region: open: block side is unterminated"
	if _, err := gmt.Parallelize(f, nil, gmt.Config{}); err == nil || err.Error() != want {
		t.Errorf("Parallelize: err = %v, want %q", err, want)
	}
	if _, _, err := gmt.ExecuteSingle(f, nil, nil); err == nil || err.Error() != want {
		t.Errorf("ExecuteSingle: err = %v, want %q", err, want)
	}
}
