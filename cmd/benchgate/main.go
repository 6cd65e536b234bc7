// Command benchgate diffs a fresh benchmark artifact against a committed
// baseline (both written by the BenchmarkSuite benchmarks via
// internal/benchsuite). Deterministic work metrics must match exactly and
// allocation counters must stay within the regression band — any such
// drift is fatal. Wall-clock ns/op is compared with a tolerance ratio and
// only reported, never fatal by default, because CI machines are noisy;
// -strict-ns promotes slowdowns past the tolerance to failures for use on
// quiet, dedicated hardware.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkSuite -benchtime 5x .
//	go run ./cmd/benchgate -baseline /path/to/committed.json -fresh BENCH_pipeline.json
package main

import (
	"flag"
	"fmt"

	"repro/internal/benchsuite"
	"repro/internal/cli"
)

func main() { cli.Main("benchgate", run) }

func run() error {
	baseline := flag.String("baseline", "BENCH_pipeline.json", "committed baseline artifact")
	fresh := flag.String("fresh", "", "fresh artifact to gate (required)")
	nsTol := flag.Float64("ns-tolerance", 2.0, "max fresh/baseline ns_per_op ratio before a slowdown is reported")
	strictNS := flag.Bool("strict-ns", false, "treat slowdowns past -ns-tolerance as failures")
	flag.Parse()
	if *fresh == "" {
		flag.Usage()
		return cli.Usagef("-fresh is required")
	}

	base, err := benchsuite.ReadFile(*baseline)
	if err != nil {
		return err
	}
	fr, err := benchsuite.ReadFile(*fresh)
	if err != nil {
		return err
	}

	failed := false
	for _, d := range benchsuite.Diff(base, fr) {
		fmt.Printf("FAIL %s\n", d)
		failed = true
	}

	fm := map[string]benchsuite.Result{}
	for _, r := range fr {
		fm[r.Name] = r
	}
	for _, b := range base {
		f, ok := fm[b.Name]
		if !ok || b.NsPerOp <= 0 || f.NsPerOp <= 0 {
			continue
		}
		ratio := f.NsPerOp / b.NsPerOp
		status := "ok  "
		if ratio > *nsTol {
			status = "slow"
			if *strictNS {
				status = "FAIL"
				failed = true
			}
		}
		fmt.Printf("%s %-40s %12.0f -> %12.0f ns/op (%.2fx)\n",
			status, b.Name, b.NsPerOp, f.NsPerOp, ratio)
	}

	if failed {
		fmt.Println("benchgate: FAIL")
		return cli.Exit(1)
	}
	fmt.Println("benchgate: ok")
	return nil
}
