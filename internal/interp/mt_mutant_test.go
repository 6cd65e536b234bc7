package interp_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
)

// pairProgram wraps the ping-pong pair exchanging n values as MTCG output:
// both threads copy the producer's three blocks (entry, loop, exit), and
// the profile is the one a single-threaded run of the loop records.
func pairProgram(n int64) (*mtcg.Program, *ir.Profile) {
	threads, nq := interp.MTPair(n, true)
	orig := threads[0]
	entry, loop, exit := orig.Blocks[0], orig.Blocks[1], orig.Blocks[2]
	prof := ir.NewProfile(orig)
	prof.AddEdge(entry, loop, 1)
	prof.AddEdge(loop, loop, n-1)
	prof.AddEdge(loop, exit, 1)
	return &mtcg.Program{
		Orig: orig, Threads: threads, NumQueues: nq, NumThreads: 2,
		Origins: [][]*ir.Block{orig.Blocks, orig.Blocks},
	}, prof
}

// pipePair is a one-way pipeline over one queue: t0 produces 0..n-1, t1
// sums them. At depth 32 both threads are runnable most turns, so a
// scheduler has real choices to make.
func pipePair(t *testing.T) []*ir.Function {
	t.Helper()
	var fs []*ir.Function
	for _, src := range []string{
		"func p(r1)\nentry:\n\tr2 = const 0\n\tr3 = const 1\n\tjump loop\n" +
			"loop:\n\tproduce [q0] = r2\n\tr2 = add r2, r3\n\tr4 = cmplt r2, r1\n\tbr r4 loop, exit\n" +
			"exit:\n\tret\n",
		"func c(r1)\nentry:\n\tr2 = const 0\n\tr3 = const 1\n\tr5 = const 0\n\tjump loop\n" +
			"loop:\n\tr6 = consume [q0]\n\tr5 = add r5, r6\n\tr2 = add r2, r3\n\tr4 = cmplt r2, r1\n\tbr r4 loop, exit\n" +
			"exit:\n\tret r5\n",
	} {
		f, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	return fs
}

// recorder logs every pick a policy makes.
type recorder struct {
	interp.Scheduler
	picks []int
}

func (r *recorder) Pick(runnable []int, lastRan []int64, step int64) int {
	p := r.Scheduler.Pick(runnable, lastRan, step)
	r.picks = append(r.picks, p)
	return p
}

// TestInjectDropDeadlocks: a drop mutant starves the consumer, and the
// existing deadlock detector names the fault — no hang, no wrong result.
func TestInjectDropDeadlocks(t *testing.T) {
	prog, prof := pairProgram(2000)
	mut, desc, ok, err := fault.Mutate(prog, prof, fault.Spec{Class: fault.DropProduce, Seed: 1})
	if !ok || err != nil {
		t.Fatalf("no drop mutant: ok=%v err=%v", ok, err)
	}
	_, err = interp.RunMT(interp.MTConfig{
		Threads: mut.Threads, NumQueues: mut.NumQueues, MaxSteps: 1_000_000,
	})
	if !errors.Is(err, interp.ErrDeadlock) {
		t.Fatalf("%s: err = %v, want ErrDeadlock", desc, err)
	}
}

// TestInjectStallTolerated: deferring a thread for a bounded window changes
// the schedule and nothing else — same live-outs as the clean run, and
// Picks == BlockedTurns + issued steps still holds.
func TestInjectStallTolerated(t *testing.T) {
	run := func(sched interp.Scheduler) *interp.MTResult {
		t.Helper()
		res, err := interp.RunMT(interp.MTConfig{
			Threads: pipePair(t), NumQueues: 1, Args: []int64{500}, Sched: sched, MaxSteps: 1_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := &recorder{Scheduler: interp.Adversarial()}
	want := run(clean)
	stalled := &recorder{Scheduler: fault.Spec{Class: fault.StallThread, Seed: 3}.Sched(interp.Adversarial(), 2)}
	res := run(stalled)
	if slices.Equal(stalled.picks, clean.picks) {
		t.Fatal("the stall never changed a pick")
	}
	if !slices.Equal(res.LiveOuts, want.LiveOuts) {
		t.Errorf("live-outs = %v, want %v", res.LiveOuts, want.LiveOuts)
	}
	if res.Sched.Picks != res.Sched.BlockedTurns+res.Steps {
		t.Errorf("Picks (%d) != BlockedTurns (%d) + Steps (%d)",
			res.Sched.Picks, res.Sched.BlockedTurns, res.Steps)
	}
}

// TestInjectShrinkTolerated: the halved queue capacity only adds
// back-pressure; results stay correct and no queue holds more than it.
func TestInjectShrinkTolerated(t *testing.T) {
	capacity := fault.Spec{Class: fault.ShrinkQueue, Seed: 1}.QueueCap(32)
	if capacity != 16 {
		t.Fatalf("shrunk capacity %d, want 16", capacity)
	}
	res, err := interp.RunMT(interp.MTConfig{
		Threads: pipePair(t), NumQueues: 1, Args: []int64{500}, QueueCap: capacity, MaxSteps: 1_000_000,
	})
	if err != nil {
		t.Fatalf("shrunk queue must be tolerated, got %v", err)
	}
	if len(res.LiveOuts) != 1 || res.LiveOuts[0] != 499*500/2 {
		t.Errorf("live-outs = %v, want [%d]", res.LiveOuts, 499*500/2)
	}
	for q, hwm := range res.QueueHWM {
		if hwm > 16 {
			t.Errorf("queue %d HWM %d exceeds the shrunken capacity 16", q, hwm)
		}
	}
}
