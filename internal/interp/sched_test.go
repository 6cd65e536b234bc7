package interp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
)

// TestRunMTSchedulesAgree runs the ping-pong program under every scheduling
// policy and queue depth and requires identical results: live-outs, stats,
// and issued-step counts are schedule-independent for correct MT code.
func TestRunMTSchedulesAgree(t *testing.T) {
	for _, qcap := range []int{1, 2, 32} {
		var want *MTResult
		for _, sched := range []Scheduler{RoundRobin(), Random(7), Random(8), Random(9), Adversarial()} {
			threads, nq := mtPair(100, true)
			res, err := RunMT(MTConfig{
				Threads: threads, NumQueues: nq, QueueCap: qcap,
				Sched: sched, MaxSteps: 100_000,
			})
			if err != nil {
				t.Fatalf("cap=%d %s: %v", qcap, sched.Name(), err)
			}
			if res.LiveOuts[0] != 99 {
				t.Errorf("cap=%d %s: live-out = %d, want 99", qcap, sched.Name(), res.LiveOuts[0])
			}
			if want == nil {
				want = res
				continue
			}
			if res.Stats != want.Stats {
				t.Errorf("cap=%d %s: stats %+v differ from round-robin %+v",
					qcap, sched.Name(), res.Stats, want.Stats)
			}
			if res.Steps != want.Steps {
				t.Errorf("cap=%d %s: steps %d differ from round-robin %d",
					qcap, sched.Name(), res.Steps, want.Steps)
			}
		}
	}
}

// TestRunMTStepBudgetCountsIssuedOnly pins the issued-instruction count of
// the ping-pong program and asserts that blocked turns do not burn MaxSteps
// budget: with single-entry queues the threads block constantly, yet a
// budget of exactly the issued count suffices.
func TestRunMTStepBudgetCountsIssuedOnly(t *testing.T) {
	// Each thread: 3 consts + jump, 100 iterations of
	// (produce/consume + consume/produce + add + cmplt + br), and ret.
	const wantSteps = 2 * (4 + 100*5 + 1)

	run := func(maxSteps int64, qcap int) (*MTResult, error) {
		threads, nq := mtPair(100, true)
		return RunMT(MTConfig{Threads: threads, NumQueues: nq, QueueCap: qcap, MaxSteps: maxSteps})
	}

	res, err := run(wantSteps, 1)
	if err != nil {
		t.Fatalf("budget of exactly %d steps at cap=1: %v", wantSteps, err)
	}
	if res.Steps != wantSteps {
		t.Errorf("Steps = %d, want %d", res.Steps, wantSteps)
	}
	if res.Steps != res.Stats.Total() {
		t.Errorf("Steps = %d but Stats.Total() = %d; budget must count issued instructions only",
			res.Steps, res.Stats.Total())
	}
	if _, err := run(wantSteps-1, 1); !errors.Is(err, ErrStepLimit) {
		t.Errorf("budget of %d steps: err = %v, want ErrStepLimit", wantSteps-1, err)
	}
	// The same budget must behave identically at a deep queue capacity,
	// where far fewer blocked turns occur.
	if _, err := run(wantSteps, 32); err != nil {
		t.Errorf("budget of exactly %d steps at cap=32: %v", wantSteps, err)
	}
}

// TestRunMTQueueBalance checks the per-queue accounting: every value
// produced is consumed by normal termination.
func TestRunMTQueueBalance(t *testing.T) {
	threads, nq := mtPair(100, true)
	res, err := RunMT(MTConfig{Threads: threads, NumQueues: nq, MaxSteps: 100_000})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	if len(res.PerQueue) != nq {
		t.Fatalf("PerQueue has %d entries, want %d", len(res.PerQueue), nq)
	}
	for q, qs := range res.PerQueue {
		if qs.Produced != 100 || qs.Consumed != 100 {
			t.Errorf("queue %d: produced/consumed = %d/%d, want 100/100", q, qs.Produced, qs.Consumed)
		}
	}
}

// deadlockPair builds two threads that each consume before producing, from
// queues only the other thread fills: a guaranteed deadlock.
func deadlockPair() []*ir.Function {
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
	return []*ir.Function{mk(0, 1), mk(1, 0)}
}

// TestDeadlockDiagnosticFormat asserts the exact, deterministic format of
// the ErrDeadlock diagnostic so it stays a usable debugging artifact.
func TestDeadlockDiagnosticFormat(t *testing.T) {
	want := strings.Join([]string{
		"thread 0: blocked at entry[0]: r1 = consume [q0] (queue 0: 0/32, empty)",
		"thread 1: blocked at entry[0]: r1 = consume [q1] (queue 1: 0/32, empty)",
		"",
	}, "\n")
	var first string
	for trial := 0; trial < 3; trial++ {
		_, err := RunMT(MTConfig{Threads: deadlockPair(), NumQueues: 2, MaxSteps: 10_000})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("err = %v, want ErrDeadlock", err)
		}
		got := strings.TrimPrefix(err.Error(), ErrDeadlock.Error()+"\n")
		if got != want {
			t.Fatalf("diagnostic:\n%q\nwant:\n%q", got, want)
		}
		if trial == 0 {
			first = got
		} else if got != first {
			t.Fatalf("diagnostic not deterministic:\n%q\nvs\n%q", got, first)
		}
	}
}

// TestDeadlockDetectedUnderEverySchedule checks that no policy can mask a
// deadlock or spin forever on one.
func TestDeadlockDetectedUnderEverySchedule(t *testing.T) {
	for _, sched := range []Scheduler{RoundRobin(), Random(3), Random(4), Random(5), Adversarial()} {
		_, err := RunMT(MTConfig{
			Threads: deadlockPair(), NumQueues: 2, Sched: sched, MaxSteps: 10_000,
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Errorf("%s: err = %v, want ErrDeadlock", sched.Name(), err)
		}
	}
}

// TestSchedulerByName covers the CLI spellings.
func TestSchedulerByName(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string
	}{
		{"round-robin", "round-robin"},
		{"rr", "round-robin"},
		{"", "round-robin"},
		{"random", "random(5)"},
		{"adversarial", "adversarial"},
		{"adv", "adversarial"},
	} {
		s, err := SchedulerByName(tc.spec, 5)
		if err != nil {
			t.Fatalf("SchedulerByName(%q): %v", tc.spec, err)
		}
		if s.Name() != tc.want {
			t.Errorf("SchedulerByName(%q).Name() = %q, want %q", tc.spec, s.Name(), tc.want)
		}
	}
	if _, err := SchedulerByName("bogus", 0); err == nil {
		t.Error("SchedulerByName(bogus) accepted")
	}
}

// TestRandomSchedulerIsSeeded asserts that the same seed replays the same
// interleaving (via identical pick sequences on a fixed runnable set).
func TestRandomSchedulerIsSeeded(t *testing.T) {
	runnable := []int{0, 1, 2}
	lastRan := []int64{-1, -1, -1}
	a, b := Random(42), Random(42)
	c := Random(43)
	same, diff := true, true
	for i := int64(0); i < 64; i++ {
		pa, pb, pc := a.Pick(runnable, lastRan, i), b.Pick(runnable, lastRan, i), c.Pick(runnable, lastRan, i)
		if pa != pb {
			same = false
		}
		if pa != pc {
			diff = false
		}
	}
	if !same {
		t.Error("Random(42) diverged from Random(42)")
	}
	if diff {
		t.Error("Random(42) identical to Random(43) over 64 picks; seed ignored?")
	}
}

// badScheduler always picks thread 0 even when it is not runnable.
type badScheduler struct{}

func (badScheduler) Name() string                         { return "bad" }
func (badScheduler) Pick(_ []int, _ []int64, _ int64) int { return 0 }

// TestBadSchedulerRejected checks that a policy picking a blocked thread is
// reported as a policy bug rather than looping forever.
func TestBadSchedulerRejected(t *testing.T) {
	// Thread 0 consumes from an empty queue (blocks); thread 1 could run,
	// but the policy keeps picking thread 0.
	f0 := ir.NewFunction("blockee")
	f0.NumQueues = 1
	e0 := f0.NewBlock("entry")
	v := f0.NewReg()
	cons := f0.NewInstr(ir.Consume, v)
	cons.Queue = 0
	e0.Append(cons)
	e0.Append(f0.NewInstr(ir.Ret, ir.NoReg))

	f1 := ir.NewFunction("runner")
	f1.NumQueues = 1
	e1 := f1.NewBlock("entry")
	p := f1.NewInstr(ir.Produce, ir.NoReg, f1.NewReg())
	p.Queue = 0
	// The produce's source register is never written; it produces 0.
	e1.Append(f1.NewInstr(ir.Const, p.Srcs[0]))
	e1.Append(p)
	e1.Append(f1.NewInstr(ir.Ret, ir.NoReg))

	_, err := RunMT(MTConfig{
		Threads: []*ir.Function{f0, f1}, NumQueues: 1,
		Sched: badScheduler{}, MaxSteps: 1000,
	})
	if !errors.Is(err, ErrBadSchedule) {
		t.Errorf("err = %v, want ErrBadSchedule", err)
	}
}

// TestAdversarialMaximizesSkew sanity-checks the longest-blocked-first
// policy: on the ping-pong program it must still complete with correct
// results at every capacity, driving queues full before switching.
func TestAdversarialMaximizesSkew(t *testing.T) {
	for _, qcap := range []int{1, 32} {
		threads, nq := mtPair(50, true)
		res, err := RunMT(MTConfig{
			Threads: threads, NumQueues: nq, QueueCap: qcap,
			Sched: Adversarial(), MaxSteps: 100_000,
		})
		if err != nil {
			t.Fatalf("cap=%d: %v", qcap, err)
		}
		if res.LiveOuts[0] != 49 {
			t.Errorf("cap=%d: live-out = %d, want 49", qcap, res.LiveOuts[0])
		}
	}
}

func ExampleSchedulerByName() {
	s, _ := SchedulerByName("random", 11)
	fmt.Println(s.Name())
	// Output: random(11)
}
