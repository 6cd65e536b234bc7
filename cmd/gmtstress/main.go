// Command gmtstress runs the corpus-scale differential torture sweep: a
// seeded corpus of generated programs (spanning size, CFG shape, aliasing
// density, live-out count, and queue-pressure axes), each cell pinned to
// one configuration point of the partitioner × schedule × queue-depth ×
// fault-class matrix and run through the differential oracle.
//
// Usage:
//
//	gmtstress -seed 1 -cells 64              sweep 64 matrix cells
//	gmtstress -seed 1 -cells 64 -j 8         same cells, 8 workers — the
//	                                         report is byte-identical
//	gmtstress -corpus corpus.json            also write the corpus manifest
//	gmtstress -from-corpus corpus.json       re-run a recorded corpus
//	gmtstress -sentinel                      plant a misplan bug: the sweep
//	                                         must fail and emit a reproducer
//	gmtstress -out repros/                   write reproducer .ir files
//
// The report and every emitted reproducer are pure functions of
// (-seed, -cells, -max-size, -sentinel): re-running with any -j produces
// byte-identical output, which CI exploits with a plain cmp. Failing
// cells are shrunk and printed in the oracle corpus format; replay one
// with gmtcheck -replay <file>, or promote it into
// internal/oracle/testdata/corpus to make it a standing regression test.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/randprog"
	"repro/internal/stress"
)

func main() { cli.Main("gmtstress", run) }

func run() (err error) {
	seed := flag.Int64("seed", 1, "corpus base seed (cell i uses program seed+i)")
	cells := flag.Int("cells", 16, "number of matrix cells to run")
	jobs := flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS; output is identical for every value)")
	maxSize := flag.Int("max-size", 0, "cap the corpus size axis at this many instructions (0 = full range)")
	corpusOut := flag.String("corpus", "", "write the corpus manifest (corpus.json) to this file")
	fromCorpus := flag.String("from-corpus", "", "regenerate programs from this corpus.json instead of streaming from the seed")
	sentinel := flag.Bool("sentinel", false, "plant a compile-time misplan cell: the sweep must detect, shrink, and reproduce it")
	maxRepros := flag.Int("max-repros", 3, "shrink at most this many failing cells into reproducers")
	shrinkChecks := flag.Int("shrink-checks", 400, "candidate-evaluation budget per shrink")
	outDir := flag.String("out", "", "also write reproducer .ir files into this directory")
	var obsf cli.ObsFlags
	obsf.Register()
	flag.Parse()

	o := obsf.New()
	var metrics *obs.Registry
	if o != nil {
		metrics = o.Metrics
	}
	defer obsf.FlushTo(o, &err)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	opts := stress.Options{
		Seed: *seed, Cells: *cells, Jobs: *jobs, MaxSize: *maxSize,
		Sentinel: *sentinel, MaxRepros: *maxRepros, ShrinkChecks: *shrinkChecks,
		Metrics: metrics,
	}
	if *fromCorpus != "" {
		data, err := os.ReadFile(*fromCorpus)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		m, err := randprog.ParseManifest(data)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		opts.Manifest = m
	}

	if *corpusOut != "" {
		m := opts.Manifest
		if m == nil {
			m = randprog.BuildManifest(*seed, *cells, *maxSize)
		}
		if err := cli.WriteFileAtomic(*corpusOut, func(w io.Writer) error {
			return m.WriteJSON(w)
		}); err != nil {
			return err
		}
	}

	res, err := stress.Sweep(context.Background(), opts)
	if err != nil {
		return err
	}
	if err := res.WriteReport(os.Stdout); err != nil {
		return err
	}
	for _, r := range res.Repros {
		fmt.Printf("reproducer (cell %d, %s):\n%s", r.Cell, r.Status, r.Text)
		if *outDir != "" {
			path := filepath.Join(*outDir, fmt.Sprintf("cell%d.ir", r.Cell))
			if err := cli.WriteFileAtomic(path, func(w io.Writer) error {
				_, werr := io.WriteString(w, r.Text)
				return werr
			}); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if res.Failed() {
		return cli.Exit(1)
	}
	return nil
}
