// Benchmarks regenerating the paper's tables and figures. Each benchmark
// reports the figure's headline quantities as custom metrics, so
// `go test -bench=. -benchmem` reproduces the evaluation of Section 4:
//
//	BenchmarkFig1Breakdown     — % communication instructions under MTCG
//	BenchmarkFig7Communication — COCO's relative dynamic communication
//	BenchmarkFig8Speedup       — speedups over single-threaded execution
//	BenchmarkFig6aConfig       — sanity-checks the machine table
//	BenchmarkAblation*         — design-choice ablations (DESIGN.md)
package gmt_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/budget"
	"repro/internal/coco"
	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// benchWorkloads returns a representative subset for per-iteration
// benchmarks (the full set runs via the experiments command).
func benchWorkloads(b *testing.B) []*workloads.Workload {
	b.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"ks", "mpeg2enc", "183.equake"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

func BenchmarkFig1Breakdown(b *testing.B) {
	ws := benchWorkloads(b)
	var rows []exp.CommRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.NewEngine(exp.EngineOptions{Jobs: 1}).CommExperiment(context.Background(), ws)
		if err != nil {
			b.Fatal(err)
		}
	}
	var gremio, dswp float64
	var ng, nd int
	for _, r := range rows {
		if r.Partitioner == "GREMIO" {
			gremio += r.CommPct()
			ng++
		} else {
			dswp += r.CommPct()
			nd++
		}
	}
	b.ReportMetric(gremio/float64(ng), "gremio-comm-%")
	b.ReportMetric(dswp/float64(nd), "dswp-comm-%")
}

func BenchmarkFig7Communication(b *testing.B) {
	ws := benchWorkloads(b)
	var rows []exp.CommRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.NewEngine(exp.EngineOptions{Jobs: 1}).CommExperiment(context.Background(), ws)
		if err != nil {
			b.Fatal(err)
		}
	}
	var gremio, dswp []float64
	for _, r := range rows {
		if r.Partitioner == "GREMIO" {
			gremio = append(gremio, r.RelativeComm())
		} else {
			dswp = append(dswp, r.RelativeComm())
		}
	}
	b.ReportMetric(exp.ArithMean(gremio), "gremio-rel-comm-%")
	b.ReportMetric(exp.ArithMean(dswp), "dswp-rel-comm-%")
}

func BenchmarkFig8Speedup(b *testing.B) {
	ws := benchWorkloads(b)
	cfg := sim.DefaultConfig()
	var rows []exp.SpeedupRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.NewEngine(exp.EngineOptions{Jobs: 1}).SpeedupExperiment(context.Background(), cfg, ws)
		if err != nil {
			b.Fatal(err)
		}
	}
	var naive, opt []float64
	for _, r := range rows {
		naive = append(naive, r.NaiveSpeedup())
		opt = append(opt, r.CocoSpeedup())
	}
	b.ReportMetric(exp.GeoMean(naive), "mtcg-speedup-x")
	b.ReportMetric(exp.GeoMean(opt), "mtcg+coco-speedup-x")
}

func BenchmarkFig6aConfig(b *testing.B) {
	var cfg sim.Config
	for i := 0; i < b.N; i++ {
		cfg = sim.DefaultConfig()
	}
	b.ReportMetric(float64(cfg.IssueWidth), "issue-width")
	b.ReportMetric(float64(cfg.MemLat), "mem-latency-cycles")
}

// ablationComm measures relative dynamic communication for a COCO variant:
// the program opts plans over each pipeline's partition and profile,
// against the pipeline's naive program.
func ablationComm(b *testing.B, name string, opts coco.Options) {
	b.Helper()
	ws := benchWorkloads(b)
	var rel []float64
	for i := 0; i < b.N; i++ {
		rel = rel[:0]
		e := exp.NewEngine(exp.EngineOptions{Jobs: 1})
		for _, part := range exp.Partitioners() {
			for _, w := range ws {
				p, err := e.Pipeline(context.Background(), w, part)
				if err != nil {
					b.Fatal(err)
				}
				naive, err := p.MeasureComm(p.Naive)
				if err != nil {
					b.Fatal(err)
				}
				plan, err := coco.Plan(w.F, p.Graph, p.Assign, 2, p.Profile, opts)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := mtcg.Generate(plan)
				if err != nil {
					b.Fatal(err)
				}
				opt, err := p.MeasureComm(prog)
				if err != nil {
					b.Fatal(err)
				}
				if naive.Comm() > 0 {
					rel = append(rel, 100*float64(opt.Comm())/float64(naive.Comm()))
				}
			}
		}
	}
	b.ReportMetric(exp.ArithMean(rel), name)
}

func BenchmarkAblationFullCOCO(b *testing.B) {
	ablationComm(b, "rel-comm-%", coco.DefaultOptions())
}

func BenchmarkAblationNoControlPenalties(b *testing.B) {
	opts := coco.DefaultOptions()
	opts.ControlPenalties = false
	ablationComm(b, "rel-comm-%", opts)
}

func BenchmarkAblationNoMemSharing(b *testing.B) {
	opts := coco.DefaultOptions()
	opts.ShareMemSync = false
	ablationComm(b, "rel-comm-%", opts)
}

func BenchmarkAblationQueueAllocation(b *testing.B) {
	w, err := workloads.ByName("ks")
	if err != nil {
		b.Fatal(err)
	}
	var before, after int
	for i := 0; i < b.N; i++ {
		p, err := exp.NewEngine(exp.EngineOptions{Jobs: 1}).Pipeline(context.Background(), w, partition.GREMIO{})
		if err != nil {
			b.Fatal(err)
		}
		// Rebuild an unallocated program to measure the difference.
		g := pdg.Build(w.F, w.Objects)
		plan, err := coco.Plan(w.F, g, p.Assign, 2, p.Profile, coco.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		prog, err := mtcg.Generate(plan)
		if err != nil {
			b.Fatal(err)
		}
		alloc := queue.Allocate(prog)
		before, after = alloc.Before, alloc.After
	}
	b.ReportMetric(float64(before), "queues-before")
	b.ReportMetric(float64(after), "queues-after")
}

// BenchmarkCompilePipeline measures end-to-end compilation cost (the
// Section 4 claim that Edmonds–Karp "performed well enough not to
// significantly increase compilation time"): profile, PDG, partition and
// naive MTCG, and with coco=true COCO's plan and its program on top.
func BenchmarkCompilePipeline(b *testing.B) {
	for _, sched := range []partition.Partitioner{partition.DSWP{}, partition.GREMIO{}} {
		for _, withCoco := range []bool{false, true} {
			name := fmt.Sprintf("%s/coco=%v", sched.Name(), withCoco)
			b.Run(name, func(b *testing.B) {
				w, err := workloads.ByName("mpeg2enc")
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					in := w.Train()
					g := pdg.Build(w.F, w.Objects)
					prof, err := profileOnce(w, in)
					if err != nil {
						b.Fatal(err)
					}
					assign, err := sched.Partition(w.F, g, prof, 2)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := mtcg.Generate(mtcg.NaivePlan(w.F, g, assign, 2)); err != nil {
						b.Fatal(err)
					}
					if !withCoco {
						continue
					}
					plan, err := coco.Plan(w.F, g, assign, 2, prof, coco.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
					if _, err := mtcg.Generate(plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// profileOnce collects a training profile for a workload.
func profileOnce(w *workloads.Workload, in workloads.Input) (*ir.Profile, error) {
	res, err := interp.Run(w.F, in.Args, in.Mem, budget.Experiments().ProfileSteps)
	if err != nil {
		return nil, err
	}
	return res.Profile, nil
}

// Machine-sensitivity extensions: the paper fixes the SA at 32-entry queues
// with 1-cycle access; these benchmarks sweep both to show how sensitive
// the MTCG+COCO speedups are to the communication substrate.

func sensitivityCycles(b *testing.B, mutate func(*sim.Config)) float64 {
	b.Helper()
	w, err := workloads.ByName("ks")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	mutate(&cfg)
	var speedup float64
	for i := 0; i < b.N; i++ {
		p, err := exp.NewEngine(exp.EngineOptions{Jobs: 1}).Pipeline(context.Background(), w, partition.GREMIO{})
		if err != nil {
			b.Fatal(err)
		}
		st, err := exp.SingleThreadedCycles(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		mt, err := p.MeasureCycles(cfg, p.Coco)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(st) / float64(mt)
	}
	return speedup
}

func BenchmarkSensitivityQueueCap(b *testing.B) {
	for _, cap := range []int{1, 4, 32, 128} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			s := sensitivityCycles(b, func(c *sim.Config) { c.QueueCap = cap })
			b.ReportMetric(s, "speedup-x")
		})
	}
}

func BenchmarkSensitivitySALatency(b *testing.B) {
	for _, lat := range []int{1, 4, 16} {
		lat := lat
		b.Run(fmt.Sprintf("lat=%d", lat), func(b *testing.B) {
			s := sensitivityCycles(b, func(c *sim.Config) { c.SALatency = lat })
			b.ReportMetric(s, "speedup-x")
		})
	}
}

func BenchmarkSensitivitySAPorts(b *testing.B) {
	for _, ports := range []int{1, 2, 4} {
		ports := ports
		b.Run(fmt.Sprintf("ports=%d", ports), func(b *testing.B) {
			s := sensitivityCycles(b, func(c *sim.Config) { c.SAPorts = ports })
			b.ReportMetric(s, "speedup-x")
		})
	}
}

// BenchmarkExperimentEngine runs the full figure matrix (communication and
// speedup, all workloads, both partitioners) through the concurrent
// engine at several worker-pool sizes. On a 4-core machine jobs=4 is
// expected to be >=2x faster wall-clock than jobs=1; per-workload
// profiling and PDG construction are memoized, so every variant also does
// 4x less analysis work than the pre-engine serial harness.
func BenchmarkExperimentEngine(b *testing.B) {
	ws := workloads.All()
	cfg := sim.DefaultConfig()
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := exp.NewEngine(exp.EngineOptions{Jobs: jobs})
				if _, err := eng.CommExperiment(context.Background(), ws); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.SpeedupExperiment(context.Background(), cfg, ws); err != nil {
					b.Fatal(err)
				}
				stats := eng.Stats()
				if stats.ProfileRuns != int64(len(ws)) || stats.PDGBuilds != int64(len(ws)) {
					b.Fatalf("memoization broken: %+v for %d workloads", stats, len(ws))
				}
			}
		})
	}
}
