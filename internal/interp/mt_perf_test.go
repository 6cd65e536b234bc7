package interp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestRunMTFastPathEquivalence pins the specialized default-configuration
// loop (runMTFast) against the general scheduler loop: an explicit
// RoundRobin() scheduler routes RunMT through the general loop, a nil
// Sched through the fast one, and every observable field of the MTResult
// must be deep-equal across queue capacities and iteration counts. A
// metrics-only run takes the fast loop too (metrics are published from the
// finished result): its MTResult must equal the unobserved one and the
// published counters must be that result's fields.
func TestRunMTFastPathEquivalence(t *testing.T) {
	for _, qcap := range []int{1, 2, 3, 32} {
		for _, iters := range []int64{0, 1, 7, 100, 1000} {
			threads, nq := mtPair(iters, true)
			fast, errFast := RunMT(MTConfig{
				Threads: threads, NumQueues: nq, QueueCap: qcap, MaxSteps: 100_000,
			})
			threads2, nq2 := mtPair(iters, true)
			slow, errSlow := RunMT(MTConfig{
				Threads: threads2, NumQueues: nq2, QueueCap: qcap,
				Sched: RoundRobin(), MaxSteps: 100_000,
			})
			if (errFast != nil) != (errSlow != nil) {
				t.Fatalf("cap=%d n=%d: fast err %v, slow err %v", qcap, iters, errFast, errSlow)
			}
			if errFast != nil {
				continue
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("cap=%d n=%d: fast path result differs from general loop:\nfast: %+v\nslow: %+v",
					qcap, iters, fast, slow)
			}

			threads3, nq3 := mtPair(iters, true)
			reg := obs.NewRegistry()
			metered, err := RunMT(MTConfig{
				Threads: threads3, NumQueues: nq3, QueueCap: qcap, MaxSteps: 100_000,
				Metrics: reg.Scope("interp"),
			})
			if err != nil {
				t.Fatalf("cap=%d n=%d: metrics-only run: %v", qcap, iters, err)
			}
			if !reflect.DeepEqual(metered, fast) {
				t.Errorf("cap=%d n=%d: metrics-only result differs from the unobserved run:\nmetered: %+v\nfast:    %+v",
					qcap, iters, metered, fast)
			}
			want := map[string]int64{
				"interp.steps": fast.Steps, "interp.compute": fast.Stats.Compute,
				"interp.dup_branch": fast.Stats.DupBranch,
				"interp.produce":    fast.Stats.Produce, "interp.consume": fast.Stats.Consume,
				"interp.produce_sync": fast.Stats.ProduceSync, "interp.consume_sync": fast.Stats.ConsumeSync,
				"interp.sched.picks": fast.Sched.Picks, "interp.sched.blocked_turns": fast.Sched.BlockedTurns,
			}
			for q, qs := range fast.PerQueue {
				want[fmt.Sprintf("interp.queue.%d.produced", q)] = qs.Produced
				want[fmt.Sprintf("interp.queue.%d.consumed", q)] = qs.Consumed
			}
			for name, v := range want {
				if got := reg.Counter(name).Value(); got != v {
					t.Errorf("cap=%d n=%d: published %s = %d, MTResult says %d", qcap, iters, name, got, v)
				}
			}
			for q, hwm := range fast.QueueHWM {
				if got := reg.Gauge(fmt.Sprintf("interp.queue.%d.hwm", q)).Value(); got != hwm {
					t.Errorf("cap=%d n=%d: published queue %d hwm = %d, MTResult says %d", qcap, iters, q, got, hwm)
				}
			}
		}
	}
}

// TestRunMTNoObserverAllocsConstant proves the no-observer path allocates
// nothing per step: after a pool-warming run, a run 50× longer must cost
// exactly the same number of allocations (the MTResult the caller keeps),
// so per-step work — queue pushes, register writes, scheduler picks — is
// allocation-free.
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

// BenchmarkRunMTNoObserver measures the raw no-observer interpreter loop
// (the path bench/'s interp.mt_ms layer times through the full pipeline)
// on the ping-pong microprogram; run with -benchmem to see the zero
// per-step allocation profile.
func BenchmarkRunMTNoObserver(b *testing.B) {
	threads, nq := mtPair(10_000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMT(MTConfig{
			Threads: threads, NumQueues: nq, QueueCap: 32, MaxSteps: 10_000_000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
