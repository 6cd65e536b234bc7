package interp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ir"
)

// outOfRangeScheduler picks a thread index that does not exist.
type outOfRangeScheduler struct{ pick int }

func (s outOfRangeScheduler) Name() string                         { return "out-of-range" }
func (s outOfRangeScheduler) Pick(_ []int, _ []int64, _ int64) int { return s.pick }

// TestOutOfRangePickRejected: a policy returning an index outside
// [0, len(threads)) is a policy bug reported as ErrBadSchedule, not an
// index panic.
func TestOutOfRangePickRejected(t *testing.T) {
	for _, pick := range []int{-1, 2, 99} {
		threads, nq := mtPair(5, true)
		_, err := RunMT(MTConfig{
			Threads: threads, NumQueues: nq,
			Sched: outOfRangeScheduler{pick}, MaxSteps: 1000,
		})
		if !errors.Is(err, ErrBadSchedule) {
			t.Errorf("pick=%d: err = %v, want ErrBadSchedule", pick, err)
		}
	}
}

// TestCtxCancelMidRunMT: a cancelled context lands between the periodic
// polls of a long multi-threaded run and surfaces as context.Canceled
// wrapped with progress, not as a deadlock or a hang.
func TestCtxCancelMidRunMT(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// ~14 dynamic instructions per exchanged value: 10k values crosses the
	// 65536-step poll boundary several times.
	threads, nq := mtPair(10_000, true)
	res, err := RunMT(MTConfig{
		Threads: threads, NumQueues: nq, MaxSteps: 10_000_000, Ctx: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
	if errors.Is(err, ErrDeadlock) {
		t.Error("cancellation misreported as deadlock")
	}
}

// TestCtxNotPolledOnShortRun: runs shorter than the poll interval complete
// even under a cancelled context (cancellation is cooperative, not exact).
func TestCtxNotPolledOnShortRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	threads, nq := mtPair(10, true)
	if _, err := RunMT(MTConfig{
		Threads: threads, NumQueues: nq, MaxSteps: 10_000, Ctx: ctx,
	}); err != nil {
		t.Fatalf("short run under cancelled ctx: %v", err)
	}
}

// TestBadProgramRejected: a thread referencing a queue outside
// [0, NumQueues) is a mis-specified plan caught up front by validation.
func TestBadProgramRejected(t *testing.T) {
	f := ir.NewFunction("bad")
	f.NumQueues = 1
	e := f.NewBlock("entry")
	v := f.NewReg()
	cons := f.NewInstr(ir.Consume, v)
	cons.Queue = 5
	e.Append(cons)
	e.Append(f.NewInstr(ir.Ret, ir.NoReg))
	_, err := RunMT(MTConfig{Threads: []*ir.Function{f}, NumQueues: 1, MaxSteps: 100})
	if !errors.Is(err, ErrBadProgram) {
		t.Errorf("err = %v, want ErrBadProgram", err)
	}
}
