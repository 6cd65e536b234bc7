// Command gmtprof is the cycle-attribution profiler CLI: it re-simulates a
// workload's multi-threaded schedule with attribution and dependence-event
// collection enabled and reports where the cycles went — the exact
// per-core cause-bucket decomposition, per-queue stall blame, and the
// dynamic critical path's top instructions and queues. With -against it
// profiles a second configuration and explains the cycle delta between the
// two (the per-bucket decomposition is exact, not sampled).
//
// Usage:
//
//	gmtprof -workload ks -partitioner dswp [-against gremio|naive|none]
//	        [-top 10] [-trace out.json] [-metrics out.json] [-trace-limit N]
//
// -against takes the other partitioner's name (compare schedulers on the
// COCO program), "naive" (compare COCO against plain MTCG under the same
// partitioner), or "none". All measurements are simulator cycles — never
// wall-clock — and the report is byte-deterministic for a given workload,
// machine, and flags. -trace writes a Chrome trace-event JSON timeline
// whose produce→consume flow arrows (load it in Perfetto) follow each
// value through the synchronization array.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
)

// subjectPid places the profiled run's lanes in the trace, away from the
// pid ranges the experiment pipelines use.
const subjectPid = 4000

func main() { cli.Main("gmtprof", run) }

func run() (err error) {
	name := flag.String("workload", "ks", "workload name (see cmd/experiments -fig 6b)")
	part := flag.String("partitioner", "gremio", "gremio or dswp")
	against := flag.String("against", "none",
		"baseline to explain the subject against: the other partitioner's name, naive, or none")
	top := flag.Int("top", 10, "critical-path list length (0 = all)")
	var of cli.ObsFlags
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
	var tr *obs.Trace
	if o != nil {
		tr = o.Trace
	}

	ctx := context.Background()
	eng := exp.NewEngine(exp.EngineOptions{Jobs: 1, Obs: o})
	cfg := sim.DefaultConfig()

	subject, err := eng.Profile(ctx, cfg, w, p, true, tr, subjectPid)
	if err != nil {
		return err
	}
	if err := subject.Render(os.Stdout, *top); err != nil {
		return err
	}

	// The baseline run is profiled without flows so the trace stays the
	// subject's; attribution and the critical path are still exact.
	var baseline *profile.Report
	switch *against {
	case "none", "":
	case "naive":
		baseline, err = eng.Profile(ctx, cfg, w, p, false, nil, 0)
		if err != nil {
			return err
		}
	default:
		bp, perr := cli.ResolvePartitioner(*against)
		if perr != nil {
			return perr
		}
		if bp.Name() == p.Name() {
			return cli.Usagef("-against %s is the subject's own partitioner; use naive or the other one", *against)
		}
		baseline, err = eng.Profile(ctx, cfg, w, bp, true, nil, 0)
		if err != nil {
			return err
		}
	}
	if baseline != nil {
		fmt.Println()
		if err := profile.Explain(baseline, subject).Render(os.Stdout, *top); err != nil {
			return err
		}
	}
	return nil
}
