package oracle

import (
	"fmt"
	"testing"

	"repro/internal/coco"
	"repro/internal/interp"
	"repro/internal/mtcg"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/sim"
)

// obsPrograms compiles every corpus case under both partitioners and both
// communication plans, returning the runnable programs with their case
// inputs. Partitions a corpus case is designed to defeat are skipped, as
// in the oracle itself.
func obsPrograms(t *testing.T) []struct {
	config string
	prog   *mtcg.Program
	c      *Case
} {
	t.Helper()
	cases, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty corpus")
	}
	var out []struct {
		config string
		prog   *mtcg.Program
		c      *Case
	}
	for _, c := range cases {
		g, err := RunGolden(c, 5_000_000)
		if err != nil {
			t.Fatalf("%s: golden: %v", c.Name, err)
		}
		graph := pdg.Build(c.F, c.Objects)
		for _, part := range []partition.Partitioner{partition.DSWP{}, partition.GREMIO{}} {
			assign, err := part.Partition(c.F, graph, g.Profile, 2)
			if err != nil {
				t.Logf("%s/%s: partition failed (%v) — skipped", c.Name, part.Name(), err)
				continue
			}
			type labelled struct {
				label string
				plan  *mtcg.Plan
			}
			plans := []labelled{{"naive", mtcg.NaivePlan(c.F, graph, assign, 2)}}
			if cp, err := coco.Plan(c.F, graph, assign, 2, g.Profile, coco.DefaultOptions()); err == nil {
				plans = append(plans, labelled{"coco", cp})
			} else {
				t.Logf("%s/%s: coco failed (%v) — skipped", c.Name, part.Name(), err)
			}
			for _, lp := range plans {
				prog, err := mtcg.Generate(lp.plan)
				if err != nil {
					t.Fatalf("%s/%s/%s: mtcg: %v", c.Name, part.Name(), lp.label, err)
				}
				queue.Allocate(prog)
				out = append(out, struct {
					config string
					prog   *mtcg.Program
					c      *Case
				}{c.Name + "/" + part.Name() + "/" + lp.label, prog, c})
			}
		}
	}
	return out
}

// TestInterpObsCountersMatchAccounting: RunMT counts once, in the MTResult
// the oracle verifies, and publishes that result to the metrics scope when
// the run succeeds. On every corpus program each published counter and
// gauge must carry its MTResult field under the documented name.
func TestInterpObsCountersMatchAccounting(t *testing.T) {
	for _, pc := range obsPrograms(t) {
		for _, qcap := range []int{1, interp.DefaultQueueCap} {
			config := fmt.Sprintf("%s/cap=%d", pc.config, qcap)
			reg := obs.NewRegistry()
			mt, err := interp.RunMT(interp.MTConfig{
				Threads: pc.prog.Threads, NumQueues: pc.prog.NumQueues,
				QueueCap: qcap, Assign: pc.prog.Assign,
				Args: pc.c.Args, Mem: append([]int64(nil), pc.c.Mem...),
				MaxSteps: 5_000_000,
				Metrics:  reg.Scope("interp"),
			})
			if err != nil {
				t.Errorf("%s: %v", config, err)
				continue
			}
			check := func(name string, want int64) {
				t.Helper()
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s: counter %s = %d, MTResult accounting says %d", config, name, got, want)
				}
			}
			check("interp.steps", mt.Steps)
			check("interp.compute", mt.Stats.Compute)
			check("interp.produce", mt.Stats.Produce)
			check("interp.consume", mt.Stats.Consume)
			check("interp.produce_sync", mt.Stats.ProduceSync)
			check("interp.consume_sync", mt.Stats.ConsumeSync)
			check("interp.dup_branch", mt.Stats.DupBranch)
			check("interp.sched.picks", mt.Sched.Picks)
			check("interp.sched.blocked_turns", mt.Sched.BlockedTurns)
			if mt.Sched.Picks != mt.Steps+mt.Sched.BlockedTurns {
				t.Errorf("%s: scheduler accounting: %d picks != %d steps + %d blocked turns",
					config, mt.Sched.Picks, mt.Steps, mt.Sched.BlockedTurns)
			}
			if mt.Steps != mt.Stats.Total() {
				t.Errorf("%s: %d steps != role total %d", config, mt.Steps, mt.Stats.Total())
			}
			for q := range mt.PerQueue {
				check(fmt.Sprintf("interp.queue.%d.produced", q), mt.PerQueue[q].Produced)
				check(fmt.Sprintf("interp.queue.%d.consumed", q), mt.PerQueue[q].Consumed)
				hwm := reg.Gauge(fmt.Sprintf("interp.queue.%d.hwm", q)).Value()
				if hwm != mt.QueueHWM[q] {
					t.Errorf("%s: queue %d hwm gauge = %d, MTResult says %d", config, q, hwm, mt.QueueHWM[q])
				}
				if int(hwm) > qcap {
					t.Errorf("%s: queue %d hwm %d exceeds queue cap %d", config, q, hwm, qcap)
				}
				if mt.PerQueue[q].Produced > 0 && hwm < 1 {
					t.Errorf("%s: queue %d produced %d values but hwm = %d",
						config, q, mt.PerQueue[q].Produced, hwm)
				}
			}
		}
	}
}

// TestSimObsCountersMatchAccounting: the simulator's obs metrics must
// reconcile exactly with its Result bookkeeping on every corpus program.
func TestSimObsCountersMatchAccounting(t *testing.T) {
	for _, pc := range obsPrograms(t) {
		cfg := sim.DefaultConfig()
		if len(pc.prog.Threads) > cfg.Cores {
			cfg.Cores = len(pc.prog.Threads)
		}
		if pc.prog.NumQueues > cfg.NumQueues {
			cfg.NumQueues = pc.prog.NumQueues
		}
		reg := obs.NewRegistry()
		res, err := sim.RunObserved(cfg, pc.prog.Threads, pc.c.Args,
			append([]int64(nil), pc.c.Mem...), 50_000_000,
			&sim.Observer{Metrics: reg.Scope("sim")})
		if err != nil {
			t.Errorf("%s: %v", pc.config, err)
			continue
		}
		check := func(name string, want int64) {
			t.Helper()
			if got := reg.Counter(name).Value(); got != want {
				t.Errorf("%s: counter %s = %d, sim Result says %d", pc.config, name, got, want)
			}
		}
		if got := reg.Gauge("sim.cycles").Value(); got != res.Cycles {
			t.Errorf("%s: cycles gauge = %d, Result says %d", pc.config, got, res.Cycles)
		}
		for i, cs := range res.PerCore {
			check(fmt.Sprintf("sim.core%d.instrs", i), cs.Instrs)
			check(fmt.Sprintf("sim.core%d.stall_cycles", i), cs.IssueStallCycles)
			check(fmt.Sprintf("sim.core%d.produces", i), cs.Produces)
			check(fmt.Sprintf("sim.core%d.consumes", i), cs.Consumes)
			check(fmt.Sprintf("sim.core%d.mispreds", i), cs.Mispreds)
		}
		for q, qs := range res.PerQueue {
			check(fmt.Sprintf("sim.queue.%d.produced", q), qs.Produced)
			check(fmt.Sprintf("sim.queue.%d.consumed", q), qs.Consumed)
			if got := reg.Gauge(fmt.Sprintf("sim.queue.%d.hwm", q)).Value(); got != qs.HighWater {
				t.Errorf("%s: queue %d hwm gauge = %d, Result says %d", pc.config, q, got, qs.HighWater)
			}
			if qs.Produced != qs.Consumed {
				t.Errorf("%s: queue %d produced %d, consumed %d", pc.config, q, qs.Produced, qs.Consumed)
			}
			if int(qs.HighWater) > cfg.QueueCap {
				t.Errorf("%s: queue %d high water %d exceeds cap %d", pc.config, q, qs.HighWater, cfg.QueueCap)
			}
		}
	}
}
