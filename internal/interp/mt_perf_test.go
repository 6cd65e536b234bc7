package interp

import (
	"testing"
)

// TestRunMTNoObserverAllocsConstant proves the no-observer path allocates
// nothing per step: a run 50× longer must cost exactly the same number of
// allocations — the run's own state, sized by the program (thread
// registers, decoded streams, queue rings, scheduler bookkeeping), and the
// MTResult the caller keeps — so per-step work (queue pushes, register
// writes, scheduler picks) is allocation-free.
func TestRunMTNoObserverAllocsConstant(t *testing.T) {
	run := func(iters int64) {
		threads, nq := mtPair(iters, true)
		if _, err := RunMT(MTConfig{
			Threads: threads, NumQueues: nq, QueueCap: 1, MaxSteps: 10_000_000,
		}); err != nil {
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
		t.Errorf("allocations scale with steps: %v for 40 iterations vs %v for 2000", short, long)
	}
	// The absolute count is the run's state and MTResult plus the mtPair
	// program construction the closure performs; bound it loosely so refactors
	// don't break the test, while still catching any per-step allocation
	// (which would add thousands).
	if long > 200 {
		t.Errorf("no-observer run allocated %v times, want O(1) result allocations only", long)
	}
}
