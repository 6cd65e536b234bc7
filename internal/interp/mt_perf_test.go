package interp

import (
	"testing"
)

// TestRunMTNoObserverAllocsConstant proves the no-observer path allocates
// nothing per step: after a pool-warming run, a run 50× longer must cost
// exactly the same number of allocations (the MTResult the caller keeps),
// so per-step work — queue pushes, register writes, scheduler picks, the
// decode into the pooled streams — is allocation-free.
func TestRunMTNoObserverAllocsConstant(t *testing.T) {
	run := func(iters int64) {
		threads, nq := mtPair(iters, true)
		if _, err := RunMT(MTConfig{
			Threads: threads, NumQueues: nq, QueueCap: 1, MaxSteps: 10_000_000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	run(2000) // warm the scratch pool to its high-water capacity
	short := testing.AllocsPerRun(10, func() { run(40) })
	long := testing.AllocsPerRun(10, func() { run(2000) })
	if raceEnabled {
		// Under the race detector sync.Pool drops a share of what is put
		// back, on purpose, so a run now and then rebuilds its scratch and
		// the two counts differ by that, not by anything per step.
		t.Skipf("race detector on: ran both lengths (%v and %v allocations), counts not compared", short, long)
	}
	if short != long {
		t.Errorf("allocations scale with steps: %v for 40 iterations vs %v for 2000", short, long)
	}
	// The absolute count is the escaping MTResult plus the mtPair program
	// construction the closure performs; bound it loosely so refactors
	// don't break the test, while still catching any per-step allocation
	// (which would add thousands).
	if long > 200 {
		t.Errorf("no-observer run allocated %v times, want O(1) result allocations only", long)
	}
}

// TestScratchReleasedClean: a scratch back in the pool holds nothing of the
// run it last served — no decoded instruction, register window or live-out
// — whether the run succeeded or not.
// (gmtserve's inline-IR requests would otherwise each stay reachable from
// the pool after their reply was sent.)
func TestScratchReleasedClean(t *testing.T) {
	threads, nq := mtPair(100, true)
	runs := map[string]MTConfig{
		"done":     {Threads: threads, NumQueues: nq, MaxSteps: 100_000},
		"deadlock": {Threads: deadlockPair(), NumQueues: 2, MaxSteps: 100_000},
		"limit":    {Threads: threads, NumQueues: nq, MaxSteps: 50},
	}
	for name, cfg := range runs {
		// A scratch of our own goes in first, so the one examined is the one
		// the run used. The pool may still hand the run another (it drops
		// items under the race detector, and a goroutine that changes
		// processor between Put and Get misses its own): try again, and
		// settle for whatever a fresh Get sees.
		var sc *mtScratch
		for try := 0; try < 5; try++ {
			sc = new(mtScratch)
			mtPool.Put(sc)
			_, err := RunMT(cfg)
			if wantErr := name == "deadlock" || name == "limit"; (err != nil) != wantErr {
				t.Fatalf("%s: err = %v", name, err)
			}
			if cap(sc.threads) > 0 {
				break
			}
			sc = mtPool.Get().(*mtScratch)
		}
		if cap(sc.threads) == 0 && !raceEnabled {
			t.Fatalf("%s: no run used a pooled scratch", name)
		}
		for i, ts := range sc.threads[:cap(sc.threads)] {
			if ts.regs != nil || ts.outs != nil {
				t.Errorf("%s: pooled thread state %d still points into the run: %+v", name, i, ts)
			}
		}
		for i := range sc.streams[:cap(sc.streams)] {
			st := &sc.streams[i]
			for pc, in := range st.Instrs[:cap(st.Instrs)] {
				if in != nil {
					t.Errorf("%s: pooled stream %d still holds the instruction at pc %d", name, i, pc)
					break
				}
			}
		}
	}
}
