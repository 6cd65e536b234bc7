// Command gmtsched parallelizes one benchmark workload and reports
// correctness, dynamic instruction statistics, and simulated cycles — the
// per-benchmark view of the pipeline that cmd/experiments aggregates.
//
// Usage:
//
// Observability: -trace writes a Chrome trace-event JSON timeline (load
// in Perfetto or chrome://tracing) including the detailed per-cycle
// simulator lanes and interpreter queue-occupancy tracks; -metrics writes
// the deterministic metrics registry. All recorded times are interpreter
// steps or simulator cycles, never wall-clock.
//
//	gmtsched -workload ks -partitioner gremio [-nococo] [-threads 2] [-sim]
//	         [-trace out.json] [-metrics out.json] [-trace-limit N]
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/budget"
	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/sim"
)

func main() { cli.Main("gmtsched", run) }

func run() (err error) {
	name := flag.String("workload", "ks", "workload name (see cmd/experiments -fig 6b)")
	part := flag.String("partitioner", "gremio", "gremio or dswp")
	noCoco := flag.Bool("nococo", false, "disable COCO (plain MTCG placement)")
	simulate := flag.Bool("sim", true, "run the cycle-level simulator")
	// The single-workload view records the detailed timelines by default;
	// traces stay manageable because only one pipeline runs.
	of := cli.ObsFlags{Timeline: true}
	of.Register()
	flag.Parse()

	w, err := cli.ResolveWorkload(*name)
	if err != nil {
		return err
	}
	p, err := cli.ResolvePartitioner(*part)
	if err != nil {
		return err
	}

	o := of.New()
	defer of.FlushTo(o, &err)

	ctx := context.Background()
	eng := exp.NewEngine(exp.EngineOptions{Jobs: 1, Obs: o})
	pipe, err := eng.Pipeline(ctx, w, p)
	if err != nil {
		return err
	}
	prog := pipe.Coco
	if *noCoco {
		prog = pipe.Naive
	}

	fmt.Printf("workload:    %s (%s, %s, %d%% of execution)\n", w.Name, w.Function, w.Suite, w.ExecPct)
	fmt.Printf("partitioner: %s, COCO=%v\n", p.Name(), !*noCoco)
	fmt.Printf("queues:      %d (from %d per-dependence queues), %d entries deep\n",
		prog.NumQueues, len(prog.Comms), pipe.QueueCap)

	// Correctness: the multi-threaded reference run must match the
	// single-threaded one.
	ref := w.Ref()
	st, err := interp.Run(w.F, ref.Args, append([]int64(nil), ref.Mem...), budget.Default().ProfileSteps)
	if err != nil {
		return err
	}
	mtCfg := interp.MTConfig{
		Threads: prog.Threads, NumQueues: prog.NumQueues, QueueCap: pipe.QueueCap,
		Assign: pipe.Assign,
		Args:   ref.Args, Mem: append([]int64(nil), ref.Mem...), MaxSteps: budget.Default().MeasureSteps,
	}
	if o != nil {
		if o.Metrics != nil {
			mtCfg.Metrics = o.Metrics.Scope("gmtsched.check.interp")
		}
		if o.Trace != nil {
			// The correctness run gets its own trace process with one
			// queue-occupancy lane.
			const checkPid = 3000
			o.Trace.ProcessName(checkPid, w.Name+"/"+p.Name()+"/check interp")
			o.Trace.ThreadName(checkPid, 0, "queues")
			mtCfg.Trace = o.Trace.Lane(checkPid, 0)
		}
	}
	mt, err := interp.RunMT(mtCfg)
	if err != nil {
		return err
	}
	for i := range st.LiveOuts {
		if st.LiveOuts[i] != mt.LiveOuts[i] {
			return fmt.Errorf("MISMATCH: live-out %d: single-threaded %d, multi-threaded %d",
				i, st.LiveOuts[i], mt.LiveOuts[i])
		}
	}
	fmt.Printf("correctness: multi-threaded run matches single-threaded (%d live-outs)\n", len(st.LiveOuts))
	fmt.Printf("dynamic:     computation=%d produce=%d consume=%d sync=%d dup-branches=%d (%.1f%% communication)\n",
		mt.Stats.Compute, mt.Stats.Produce, mt.Stats.Consume,
		mt.Stats.MemSync(), mt.Stats.DupBranch,
		100*float64(mt.Stats.Comm())/float64(mt.Stats.Total()))

	if *simulate {
		cfg := sim.DefaultConfig()
		stc, err := eng.SingleThreadedCycles(ctx, cfg, w)
		if err != nil {
			return err
		}
		mtc, err := pipe.MeasureCycles(pipe.Machine(cfg), prog)
		if err != nil {
			return err
		}
		fmt.Printf("cycles:      single-threaded=%d multi-threaded=%d speedup=%.2fx\n",
			stc, mtc, float64(stc)/float64(mtc))
	}
	return nil
}
