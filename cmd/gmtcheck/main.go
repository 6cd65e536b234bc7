// Command gmtcheck runs the differential-execution oracle: it executes
// programs through the single-threaded interpreter, the multi-threaded
// interpreter under a matrix of scheduling policies and queue depths, and
// the cycle-level simulator, and reports any divergence, deadlock, or
// invariant violation.
//
// Usage:
//
//	gmtcheck -n 200 -seed 1           sweep 200 random programs
//	gmtcheck -seed 557 -n 1 -shrink   recheck one seed; minimize failures
//	gmtcheck -schedule adversarial    restrict the scheduling policy
//	gmtcheck -workload ks             check one benchmark workload
//	gmtcheck -workload all            check every benchmark workload
//	gmtcheck -chaos drop-produce      verify the oracle detects injected faults
//	gmtcheck -replay repro.ir         re-run a reproducer file (exit 1 if it
//	                                  still fails); gmtstress emits these
//
// On failure it prints a reproducer in the corpus format (see
// internal/oracle/testdata/corpus) and exits nonzero; with -shrink the
// reproducer is first minimized.
//
// With -chaos, a deterministic fault (seeded by -chaos-seed) is armed on
// every compiled program — a destructive class checks the program's mutant,
// one edit at an executed communication site, in its place — and the
// pass/fail sense inverts into a detector check: a destructive fault the
// oracle does NOT report is the failure. Benign classes (stall-thread, shrink-queue) must instead be
// tolerated. -fail-fast stops at the first unexpected program.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/oracle"
)

func main() { cli.Main("gmtcheck", run) }

func run() error {
	seed := flag.Int64("seed", 1, "first program-generator seed")
	n := flag.Int("n", 100, "number of random programs to check")
	schedule := flag.String("schedule", "", "restrict to one scheduling policy (round-robin, random, adversarial); empty means the full matrix")
	shrink := flag.Bool("shrink", false, "minimize the first failing program before printing it")
	workload := flag.String("workload", "", "check a benchmark workload instead of random programs (a name, or 'all')")
	replay := flag.String("replay", "", "re-run a reproducer file (oracle corpus format); its replay directive pins the matrix cell")
	nosim := flag.Bool("nosim", false, "skip the cycle-level simulator cross-check")
	chaos := flag.String("chaos", "", "arm this fault class on every program and check the oracle detects it")
	chaosSeed := flag.Int64("chaos-seed", 1, "deterministic fault seed (same seed = same mutant)")
	failFast := flag.Bool("fail-fast", false, "stop at the first failing (or, with -chaos, undetected) program")
	flag.Parse()

	opts := oracle.Options{Seed: *seed, SkipSim: *nosim}
	if *schedule != "" {
		opts.Schedules = []oracle.SchedSpec{{Name: *schedule, Seed: *seed}}
	}
	var chaosClass fault.Class
	if *chaos != "" {
		cls, err := fault.ParseClass(*chaos)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		chaosClass = cls
		opts.Inject = &fault.Spec{Class: cls, Seed: *chaosSeed}
		opts.SimStallLimit = fault.StallLimit
	}

	if *replay != "" {
		return replayRepro(*replay, opts, *shrink)
	}
	if *workload != "" {
		// The workload check runs exp's fixed oracle matrix; a flag that
		// shapes the random-program sweep must not be silently dropped.
		for _, f := range []struct {
			name string
			set  bool
		}{{"-chaos", *chaos != ""}, {"-schedule", *schedule != ""}, {"-nosim", *nosim}} {
			if f.set {
				return cli.Usagef("%s does not apply to -workload", f.name)
			}
		}
		return checkWorkloads(*workload, *seed)
	}

	fail := 0
	var runs, programs int
	var injected int64
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		c := oracle.Generate(s)
		rep, err := oracle.Check(c, opts)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		runs += rep.Runs
		programs += rep.Programs
		injected += rep.Injected
		if chaosClass != "" {
			if chaosClass.Judge(rep.Injected, rep.Ok()) != fault.VerdictOK {
				fail++
				fmt.Printf("UNEXPECTED %s: class %s changed %d programs, failures %v\n",
					c.Name, chaosClass, rep.Injected, rep.Failures)
				if *failFast {
					break
				}
			}
			continue
		}
		if rep.Ok() {
			continue
		}
		fail++
		fmt.Printf("FAIL %s\n%v\n", c.Name, rep.Err())
		if *shrink {
			kind := rep.Failures[0].Kind
			fmt.Printf("shrinking against %q...\n", kind)
			min, err := oracle.Shrink(c, oracle.StillFails(opts, kind), 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gmtcheck: shrink stopped early: %v\n", err)
			}
			c = min
			c.Name = fmt.Sprintf("seed=%d (shrunk)", s)
		}
		fmt.Printf("reproducer:\n%s", oracle.FormatCase(c))
		if *shrink || *failFast {
			break // one reproducer per invocation
		}
	}
	if chaosClass != "" {
		fmt.Printf("chaos %s seed %d: checked %d programs (%d runs, %d faulted programs): %d undetected\n",
			chaosClass, *chaosSeed, *n, runs, injected, fail)
	} else {
		fmt.Printf("checked %d programs (%d compiled configurations, %d executor runs): %d failing\n",
			*n, programs, runs, fail)
	}
	if fail > 0 {
		return cli.Exit(1)
	}
	return nil
}

// replayRepro re-runs one reproducer file. The file's replay directive
// (written by gmtstress and by -shrink) pins the exact matrix cell the
// failure was found in; a file without one runs the full matrix under the
// flag-derived options. Exit status 1 means the failure reproduced.
func replayRepro(path string, opts oracle.Options, shrink bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	c, err := oracle.ParseCase(string(data))
	if err != nil {
		return cli.Usagef("%v", err)
	}
	// A trace directive links the file to the telemetry of the run that
	// found it; echo it so replay output is greppable by trace ID.
	trace := ""
	if c.TraceID != "" {
		trace = fmt.Sprintf(", trace %s", c.TraceID)
	}
	if c.Replay != nil {
		opts.Seed = c.Seed
		if opts, err = c.Replay.Apply(opts); err != nil {
			return cli.Usagef("%v", err)
		}
		fmt.Printf("replaying %s (cell: %s%s)\n", c.Name, c.Replay, trace)
	} else {
		fmt.Printf("replaying %s (full matrix%s)\n", c.Name, trace)
	}
	rep, err := oracle.Check(c, opts)
	if err != nil {
		return err
	}
	if rep.Ok() {
		fmt.Printf("did not reproduce: %d runs clean (%d faults injected)\n", rep.Runs, rep.Injected)
		return nil
	}
	fmt.Printf("reproduced: %v\n", rep.Err())
	if shrink {
		kind := rep.Failures[0].Kind
		fmt.Printf("shrinking against %q...\n", kind)
		min, err := oracle.Shrink(c, oracle.StillFails(opts, kind), 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gmtcheck: shrink stopped early: %v\n", err)
		}
		min.Name = c.Name + " (shrunk)"
		fmt.Printf("reproducer:\n%s", oracle.FormatCase(min))
	}
	return cli.Exit(1)
}

// checkWorkloads runs the oracle experiment over one or all benchmark
// workloads and prints a row per matrix cell.
func checkWorkloads(name string, seed int64) error {
	ws, err := cli.ResolveWorkloads(name)
	if err != nil {
		return err
	}
	engine := exp.NewEngine(exp.EngineOptions{})
	rows, err := engine.OracleExperiment(context.Background(), ws, seed)
	if err != nil {
		return err
	}
	fail := 0
	for _, r := range rows {
		status := "ok"
		if len(r.Failures) > 0 {
			status = "FAIL"
			fail++
		}
		fmt.Printf("%-10s %-8s %4d runs over %d programs  %s\n",
			r.Workload, r.Partitioner, r.Runs, r.Programs, status)
		for _, f := range r.Failures {
			fmt.Printf("    %s\n", f)
		}
	}
	if fail > 0 {
		return cli.Exit(1)
	}
	return nil
}
