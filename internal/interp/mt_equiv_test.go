package interp_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coco"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/workloads"
)

// region is a source function with one input, ready to be compiled into
// multi-threaded programs.
type region struct {
	name    string
	f       *ir.Function
	objects []ir.MemObject
	args    []int64
	mem     []int64

	graph  *pdg.Graph
	golden *interp.Result // the single-threaded run: outcome and edge profile
}

// analyse runs the region single-threaded on its input and builds its PDG,
// once.
func (r *region) analyse(tb testing.TB) {
	tb.Helper()
	if r.graph != nil {
		return
	}
	st, err := interp.Run(r.f, r.args, append([]int64(nil), r.mem...), 50_000_000)
	if err != nil {
		tb.Fatalf("%s: single-threaded run: %v", r.name, err)
	}
	r.golden = st
	r.graph = pdg.Build(r.f, r.objects)
}

// compile partitions the region into n threads and generates the naive or
// the COCO program, queues allocated — the program exp.Pipeline would run.
func (r *region) compile(tb testing.TB, part partition.Partitioner, n int, useCoco bool) (*mtcg.Program, map[*ir.Instr]int) {
	tb.Helper()
	r.analyse(tb)
	assign, err := part.Partition(r.f, r.graph, r.golden.Profile, n)
	if err != nil {
		tb.Fatalf("%s: %s at %d threads: %v", r.name, part.Name(), n, err)
	}
	plan := mtcg.NaivePlan(r.f, r.graph, assign, n)
	if useCoco {
		if plan, err = coco.Plan(r.f, r.graph, assign, n, r.golden.Profile, coco.DefaultOptions()); err != nil {
			tb.Fatalf("%s: coco: %v", r.name, err)
		}
	}
	prog, err := mtcg.Generate(plan)
	if err != nil {
		tb.Fatalf("%s: mtcg: %v", r.name, err)
	}
	queue.Allocate(prog)
	return prog, assign
}

// kernel wraps a paper workload on its train input.
func kernel(tb testing.TB, name string) *region {
	tb.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	in := w.Train()
	return &region{name: name, f: w.F, objects: w.Objects, args: in.Args, mem: in.Mem}
}

// TestRunMTFastPathEquivalence runs RunMT's one scheduler loop under its
// default policy (a nil Sched: run-to-block) over a program matrix and
// checks each run against facts that do not depend on the loop: the
// ping-pong pair across queue depths and lengths, where a metrics-only run
// must equal the plain one (metrics are published from the finished
// result) and publish every counter and gauge the MTResult carries; every
// paper kernel × partitioner × communication plan × queue depth, and the
// oracle's corpus programs cut into three threads, against their
// single-threaded runs; and one case per way a run can fail. The name
// dates from when a nil Sched took a second, burst-at-a-time loop that
// this test held to the general one.
func TestRunMTFastPathEquivalence(t *testing.T) {
	t.Run("ping-pong", func(t *testing.T) {
		for _, qcap := range []int{1, 2, 3, 32} {
			for _, iters := range []int64{0, 1, 7, 100, 1000} {
				label := fmt.Sprintf("cap=%d n=%d", qcap, iters)
				threads, nq := interp.MTPair(iters, true)
				cfg := interp.MTConfig{Threads: threads, NumQueues: nq, QueueCap: qcap, MaxSteps: 100_000}
				plain, err := interp.RunMT(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				reg := obs.NewRegistry()
				cfg.Metrics = reg.Scope("interp")
				metered, err := interp.RunMT(cfg)
				if err != nil {
					t.Fatalf("%s: metrics-only run: %v", label, err)
				}
				if !reflect.DeepEqual(metered, plain) {
					t.Errorf("%s: metrics-only result differs from the unobserved run:\nmetered: %+v\nplain:   %+v",
						label, metered, plain)
				}
				want := map[string]int64{
					"interp.steps": plain.Steps, "interp.compute": plain.Stats.Compute,
					"interp.dup_branch": plain.Stats.DupBranch,
					"interp.produce":    plain.Stats.Produce, "interp.consume": plain.Stats.Consume,
					"interp.produce_sync": plain.Stats.ProduceSync, "interp.consume_sync": plain.Stats.ConsumeSync,
					"interp.sched.picks": plain.Sched.Picks, "interp.sched.blocked_turns": plain.Sched.BlockedTurns,
				}
				for q, qs := range plain.PerQueue {
					want[fmt.Sprintf("interp.queue.%d.produced", q)] = qs.Produced
					want[fmt.Sprintf("interp.queue.%d.consumed", q)] = qs.Consumed
				}
				for name, v := range want {
					if got := reg.Counter(name).Value(); got != v {
						t.Errorf("%s: published %s = %d, MTResult says %d", label, name, got, v)
					}
				}
				for q, hwm := range plain.QueueHWM {
					if got := reg.Gauge(fmt.Sprintf("interp.queue.%d.hwm", q)).Value(); got != hwm {
						t.Errorf("%s: published queue %d hwm = %d, MTResult says %d", label, q, got, hwm)
					}
				}
			}
		}
	})

	// compiled runs one generated program at the given depths and checks
	// each run against the region's own single-threaded outcome and its
	// scheduler and role accounting.
	compiled := func(t *testing.T, r *region, part partition.Partitioner, n int, caps []int) {
		r.analyse(t)
		golden := r.golden
		for _, useCoco := range []bool{false, true} {
			prog, assign := r.compile(t, part, n, useCoco)
			for _, qcap := range caps {
				label := fmt.Sprintf("%s/%s/%dt/coco=%v/cap=%d", r.name, part.Name(), n, useCoco, qcap)
				mt, err := interp.RunMT(interp.MTConfig{
					Threads: prog.Threads, NumQueues: prog.NumQueues, QueueCap: qcap,
					Assign: assign, Args: r.args, Mem: append([]int64(nil), r.mem...),
					MaxSteps: 50_000_000,
				})
				if err != nil {
					t.Errorf("%s: %v", label, err)
					continue
				}
				if !reflect.DeepEqual(mt.LiveOuts, golden.LiveOuts) || !reflect.DeepEqual([]int64(mt.Mem), []int64(golden.Mem)) {
					t.Errorf("%s: multi-threaded run diverges from the single-threaded run", label)
				}
				if mt.Sched.Policy != "adversarial" {
					t.Errorf("%s: a nil Sched ran policy %q, want adversarial", label, mt.Sched.Policy)
				}
				if mt.Sched.Picks != mt.Sched.BlockedTurns+mt.Steps || mt.Steps != mt.Stats.Total() {
					t.Errorf("%s: picks %d, blocked turns %d, steps %d, role total %d do not add up",
						label, mt.Sched.Picks, mt.Sched.BlockedTurns, mt.Steps, mt.Stats.Total())
				}
			}
		}
	}
	parts := []partition.Partitioner{partition.GREMIO{}, partition.DSWP{}}

	t.Run("kernels", func(t *testing.T) {
		names := workloads.Names()
		if testing.Short() {
			names = []string{"ks", "adpcmdec", "mpeg2enc"}
		}
		for _, name := range names {
			r := kernel(t, name)
			for _, part := range parts {
				caps := []int{1}
				if own := partition.QueueCapFor(part); own != 1 {
					caps = append(caps, own)
				}
				compiled(t, r, part, 2, caps)
			}
		}
	})

	t.Run("corpus-3-threads", func(t *testing.T) {
		files, err := filepath.Glob("../oracle/testdata/corpus/*.ir")
		if err != nil || len(files) == 0 {
			t.Fatalf("no oracle corpus found (%v)", err)
		}
		for _, path := range files {
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c, err := oracle.ParseCase(string(text))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			r := &region{name: filepath.Base(path), f: c.F, objects: c.Objects, args: c.Args, mem: c.Mem}
			for _, part := range parts {
				compiled(t, r, part, 3, []int{1, interp.DefaultQueueCap})
			}
		}
	})

	t.Run("deadlock", func(t *testing.T) {
		// At the entry, and in the middle of a loop body after both
		// threads have run for a while: the report names every thread's
		// block and position, recovered from its pc.
		_, err := interp.RunMT(interp.MTConfig{Threads: interp.DeadlockPair(), NumQueues: 2, MaxSteps: 10_000})
		if !errors.Is(err, interp.ErrDeadlock) {
			t.Errorf("entry: err = %v, want ErrDeadlock", err)
		}
		threads, nq := interp.MTPair(50, true)
		// Two producers-first threads: each fills its queue, then waits on
		// one only the other's missing consumer half would fill.
		_, err = interp.RunMT(interp.MTConfig{
			Threads: []*ir.Function{threads[0], threads[0]}, NumQueues: nq, QueueCap: 3, MaxSteps: 10_000,
		})
		if !errors.Is(err, interp.ErrDeadlock) {
			t.Fatalf("mid-loop: err = %v, want ErrDeadlock", err)
		}
		for ti := 0; ti < 2; ti++ {
			if want := fmt.Sprintf("thread %d: blocked at ", ti); !strings.Contains(err.Error(), want) {
				t.Errorf("mid-loop: report lacks %q:\n%v", want, err)
			}
		}
	})

	t.Run("step-limit", func(t *testing.T) {
		// The run stops at the first issued step past the budget, and a
		// budget of exactly the issued count completes.
		threads, nq := interp.MTPair(100, true)
		const total = 2 * (4 + 100*5 + 1)
		for _, budget := range []int64{-3, 0, 1, 4, 5, 777, total - 1} {
			_, err := interp.RunMT(interp.MTConfig{Threads: threads, NumQueues: nq, QueueCap: 1, MaxSteps: budget})
			if !errors.Is(err, interp.ErrStepLimit) {
				t.Errorf("budget=%d: err = %v, want ErrStepLimit", budget, err)
			} else if want := fmt.Sprintf("(multi-threaded, %d steps)", max(budget, 0)+1); !strings.Contains(err.Error(), want) {
				t.Errorf("budget=%d: err = %v, want it to strike at %s", budget, err, want)
			}
		}
		if _, err := interp.RunMT(interp.MTConfig{Threads: threads, NumQueues: nq, QueueCap: 1, MaxSteps: total}); err != nil {
			t.Errorf("a budget of exactly the issued count: %v", err)
		}
	})

	t.Run("cancelled-context", func(t *testing.T) {
		// A done context strikes at the first poll, one poll interval
		// (65 536 issued steps) in; a run shorter than that never polls.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		threads, nq := interp.MTPair(10_000, true)
		_, err := interp.RunMT(interp.MTConfig{Threads: threads, NumQueues: nq, MaxSteps: 10_000_000, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		} else if !strings.Contains(err.Error(), "after 65536 steps") {
			t.Errorf("err = %v, want it to strike after 65536 steps", err)
		}
		short, nq := interp.MTPair(10, true)
		if _, err := interp.RunMT(interp.MTConfig{Threads: short, NumQueues: nq, MaxSteps: 10_000, Ctx: ctx}); err != nil {
			t.Errorf("a run shorter than the poll interval: %v", err)
		}
	})

	t.Run("memory-fault", func(t *testing.T) {
		for _, op := range []ir.Op{ir.Load, ir.Store} {
			f := ir.NewFunction("oob")
			e := f.NewBlock("entry")
			base, v := f.NewReg(), f.NewReg()
			c := f.NewInstr(ir.Const, base)
			c.Imm = 6
			e.Append(c)
			acc := f.NewInstr(ir.Load, v, base)
			if op == ir.Store {
				acc = f.NewInstr(ir.Store, ir.NoReg, base, base)
			}
			acc.Imm = 2
			e.Append(acc)
			e.Append(f.NewInstr(ir.Ret, ir.NoReg))
			_, err := interp.RunMT(interp.MTConfig{Threads: []*ir.Function{f}, Mem: make([]int64, 8), MaxSteps: 100})
			if err == nil || !strings.Contains(err.Error(), "address 8 out of range [0,8)") {
				t.Errorf("%v at address 8 of 8 words: err = %v", op, err)
			}
		}
	})

	t.Run("unsound-function", func(t *testing.T) {
		// A block without a terminator that no run reaches costs the loop
		// nothing (gmtserve takes inline IR it has not verified). One that
		// is reached made the block walk index out of range; the loop spins
		// on the trap ir.Stream.Decode planted there and reports the step
		// budget, under every policy and trace lane.
		mk := func(reach bool) *ir.Function {
			f := ir.NewFunction("unsound")
			entry, open, exit := f.NewBlock("entry"), f.NewBlock("open"), f.NewBlock("exit")
			c := f.NewReg()
			ci := f.NewInstr(ir.Const, c)
			if reach {
				ci.Imm = 1
			}
			entry.Append(ci)
			entry.Append(f.NewInstr(ir.Br, ir.NoReg, c))
			entry.SetSuccs(open, exit)
			open.Append(f.NewInstr(ir.Nop, ir.NoReg))
			exit.Append(f.NewInstr(ir.Ret, ir.NoReg, c))
			return f
		}
		res, err := interp.RunMT(interp.MTConfig{Threads: []*ir.Function{mk(false)}, MaxSteps: 100})
		if err != nil || len(res.LiveOuts) != 1 || res.Steps != 3 {
			t.Errorf("unreached open block: result %+v, err %v", res, err)
		}
		for _, tc := range []struct {
			name string
			set  func(*interp.MTConfig)
		}{
			{"default", func(*interp.MTConfig) {}},
			{"round-robin", func(c *interp.MTConfig) { c.Sched = interp.RoundRobin() }},
			{"trace", func(c *interp.MTConfig) { c.Trace = obs.NewTrace().Lane(1, 0) }},
		} {
			cfg := interp.MTConfig{Threads: []*ir.Function{mk(true)}, MaxSteps: 100}
			tc.set(&cfg)
			if _, err := interp.RunMT(cfg); !errors.Is(err, interp.ErrStepLimit) {
				t.Errorf("reached open block, %s: err = %v, want ErrStepLimit", tc.name, err)
			}
		}
	})

	t.Run("bad-queue", func(t *testing.T) {
		f := ir.NewFunction("bad")
		f.NumQueues = 2
		e := f.NewBlock("entry")
		p := f.NewInstr(ir.ProduceSync, ir.NoReg)
		p.Queue = 1
		e.Append(p)
		e.Append(f.NewInstr(ir.Ret, ir.NoReg))
		// Queue index NumQueues itself: one past the last.
		_, err := interp.RunMT(interp.MTConfig{Threads: []*ir.Function{f}, NumQueues: 1, MaxSteps: 100})
		if !errors.Is(err, interp.ErrBadProgram) {
			t.Errorf("err = %v, want ErrBadProgram", err)
		}
	})
}

// BenchmarkRunMTNoObserver measures RunMT's one scheduler loop under its
// default policy with nothing attached, and reports its rate in millions of
// issued instructions per second: on the ping-pong microprogram, and on two
// COCO programs of real kernels — ks under DSWP (32-entry queues: long
// bursts) and mpeg2enc under GREMIO (single-entry queues: a thread blocks
// every few instructions, which the ping-pong pair at depth 32 never does).
// Run with -benchmem to see the zero per-step allocation profile.
func BenchmarkRunMTNoObserver(b *testing.B) {
	run := func(b *testing.B, mk func() interp.MTConfig) {
		b.ReportAllocs()
		var steps int64
		for i := 0; i < b.N; i++ {
			b.StopTimer() // a kernel's memory image is reset outside the clock
			cfg := mk()
			b.StartTimer()
			res, err := interp.RunMT(cfg)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/1e6/b.Elapsed().Seconds(), "Msteps/s")
	}
	b.Run("ping-pong", func(b *testing.B) {
		threads, nq := interp.MTPair(10_000, true)
		run(b, func() interp.MTConfig {
			return interp.MTConfig{Threads: threads, NumQueues: nq, QueueCap: 32, MaxSteps: 10_000_000}
		})
	})
	for _, tc := range []struct {
		kernel string
		part   partition.Partitioner
	}{{"ks", partition.DSWP{}}, {"mpeg2enc", partition.GREMIO{}}} {
		b.Run(tc.kernel+"/"+tc.part.Name(), func(b *testing.B) {
			r := kernel(b, tc.kernel)
			prog, assign := r.compile(b, tc.part, 2, true)
			mem := make([]int64, len(r.mem))
			b.ResetTimer()
			run(b, func() interp.MTConfig {
				copy(mem, r.mem)
				return interp.MTConfig{
					Threads: prog.Threads, NumQueues: prog.NumQueues,
					QueueCap: partition.QueueCapFor(tc.part), Assign: assign,
					Args: r.args, Mem: mem, MaxSteps: 50_000_000,
				}
			})
		})
	}
}
