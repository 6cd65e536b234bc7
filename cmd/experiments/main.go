// Command experiments regenerates the paper's tables and figures: the
// machine table (6a), the benchmark table (6b), the dynamic-instruction
// breakdown under MTCG (1), COCO's communication reduction (7), and the
// speedups over single-threaded execution (8).
//
// The workload × partitioner matrix is fanned out over a worker pool
// (-j/-jobs, default GOMAXPROCS; -j 1 restores the serial path) with
// per-workload profiling and PDG construction memoized and shared between
// figures, so parallel runs emit byte-identical figure rows to serial
// runs. Wall-clock time per figure is reported on stderr.
//
// Usage:
//
// Observability: -trace writes a Chrome trace-event JSON timeline of
// every pipeline phase, interpreter run, and simulation (load it in
// Perfetto or chrome://tracing); -metrics writes the deterministic metrics
// registry. All recorded times are interpreter steps or simulator cycles,
// never wall-clock, so both files are byte-identical across runs and -j
// settings. -timeline additionally records per-cycle simulator lanes
// (bounded by -trace-limit).
//
// Robustness: -chaos matrix runs the detector-coverage matrix (every
// fault class × workload × partitioner cell through the differential
// oracle) and exits nonzero if any cell misses its contract; any other
// -chaos value is a usage error. -chaos-seed makes the faults
// deterministic: same seed, same mutants, byte-identical reports. A figure
// cell whose pipeline or measurement fails falls back (alternate
// partitioner, then single-threaded) and its row is annotated; -fail-fast
// disables that degradation chain so the first stage failure aborts
// instead.
//
// Profiling: -explain re-simulates every Figure 8 cell under the
// cycle-attribution profiler (internal/profile) and annotates each row
// with the dominant per-bucket contributions to the naive→COCO cycle
// delta; see cmd/gmtprof for the full per-run report.
//
//	experiments [-fig all|1|6a|6b|7|8] [-workloads ks,mpeg2enc,...] [-j N]
//	            [-explain] [-trace out.json] [-metrics out.json] [-timeline]
//	            [-trace-limit N] [-chaos matrix] [-chaos-seed N]
//	            [-fail-fast]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/sim"
)

func main() { cli.Main("experiments", run) }

func run() (err error) {
	fig := flag.String("fig", "all", "figure to regenerate: all, 1, 6a, 6b, 7, 8")
	sel := flag.String("workloads", "", "comma-separated workload subset (default: all)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "worker-pool size for the experiment matrix (1 = serial)")
	flag.IntVar(jobs, "j", runtime.GOMAXPROCS(0), "shorthand for -jobs")
	var of cli.ObsFlags
	of.Register()
	timeline := flag.Bool("timeline", false, "record per-cycle simulator/interpreter lanes in the trace (large)")
	explain := flag.Bool("explain", false, "annotate Figure 8 rows with the profiler's naive→COCO cycle-delta decomposition")
	chaos := flag.String("chaos", "", "\"matrix\" runs the detector-coverage matrix instead of the figures")
	chaosSeed := flag.Int64("chaos-seed", 1, "deterministic fault seed (same seed = same mutants)")
	failFast := flag.Bool("fail-fast", false, "disable the graceful-degradation chain: abort on the first stage failure")
	flag.Parse()
	of.Timeline = *timeline

	switch *fig {
	case "all", "1", "6a", "6b", "7", "8":
	default:
		return cli.Usagef("unknown figure %q (want all, 1, 6a, 6b, 7 or 8)", *fig)
	}
	if *chaos != "" && *chaos != "matrix" {
		return cli.Usagef("unknown -chaos %q (want matrix)", *chaos)
	}
	if *jobs < 1 {
		*jobs = runtime.GOMAXPROCS(0)
	}

	ws, err := cli.ResolveWorkloads(*sel)
	if err != nil {
		return err
	}
	ctx := context.Background()
	o := of.New()
	defer of.FlushTo(o, &err)
	engine := exp.NewEngine(exp.EngineOptions{Jobs: *jobs, Obs: o, Degrade: !*failFast})

	if *chaos == "matrix" {
		cells, err := engine.CoverageMatrix(ctx, ws, *chaosSeed)
		if err != nil {
			return err
		}
		exp.RenderChaos(os.Stdout, *chaosSeed, cells)
		if !exp.ChaosOK(cells) {
			return cli.Exit(1)
		}
		return nil
	}

	timed := func(phase string, d time.Duration) {
		fmt.Fprintf(os.Stderr, "figure %s: %v (j=%d)\n", phase, d.Round(time.Millisecond), *jobs)
	}
	if err := engine.RenderFigures(ctx, os.Stdout, sim.DefaultConfig(), ws, *fig, *explain, timed); err != nil {
		return err
	}

	if n := engine.Stats().Fallbacks; n > 0 {
		fmt.Fprintf(os.Stderr, "%d fallbacks taken\n", n)
	}
	return nil
}
