// Benchmark-regression gate: recompute every BenchmarkSuite benchmark's
// deterministic work metrics (no timing loop) and diff them against the
// committed BENCH_pipeline.json. Wall-clock ns/op is noise and is ignored;
// the work metrics must not drift between commits unless the change
// intends them to — in which case regenerate the baseline:
//
//	go test -run '^$' -bench BenchmarkSuite -benchtime 5x .
//
// and commit the rewritten file alongside the change that explains it.
package gmt_test

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/budget"
	"repro/internal/coco"
	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// suiteFresh recomputes the deterministic metrics of each BenchmarkSuite
// benchmark. It must stay in step with the metric maps the benchmarks in
// bench_pipeline_test.go record: a metric added there joins the baseline
// on the next regeneration and must be mirrored here.
func suiteFresh(t *testing.T) []benchsuite.Result {
	t.Helper()
	metrics := func(name string, m map[string]float64) benchsuite.Result {
		return benchsuite.Result{Name: name, Metrics: m}
	}
	byName := func(name string) *workloads.Workload {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	build := func(name string, part partition.Partitioner) *exp.Pipeline {
		p, err := exp.Build(byName(name), part, coco.DefaultOptions())
		if err != nil {
			t.Fatalf("%s/%s: %v", name, part.Name(), err)
		}
		return p
	}
	var rs []benchsuite.Result

	ks := byName("ks")
	g := pdg.Build(ks.F, ks.Objects)
	rs = append(rs, metrics("BenchmarkSuitePDGBuild", map[string]float64{
		"arcs":  float64(g.NumArcs()),
		"nodes": float64(ks.F.NumInstrs()),
	}))

	fg, s, sink := cfgShapedGraph(60, rand.New(rand.NewSource(5)))
	rs = append(rs, metrics("BenchmarkSuiteMinCutEdmondsKarp",
		map[string]float64{"max-flow": float64(fg.MaxFlow(s, sink))}))

	rs = append(rs, metrics("BenchmarkSuiteCocoPlanRandprog160", suiteCocoPlans(t, suiteRandprog160(t))))

	pipeMetrics := func(p *exp.Pipeline) map[string]float64 {
		return map[string]float64{
			"coco-instrs":  suiteProgInstrs(p, true),
			"coco-queues":  float64(p.Coco.NumQueues),
			"naive-instrs": suiteProgInstrs(p, false),
			"naive-queues": float64(p.Naive.NumQueues),
		}
	}
	ksGremio := build("ks", partition.GREMIO{})
	ksDswp := build("ks", partition.DSWP{})
	rs = append(rs,
		metrics("BenchmarkSuitePipelineKSGremio", pipeMetrics(ksGremio)),
		metrics("BenchmarkSuitePipelineKSDSWP", pipeMetrics(ksDswp)),
		metrics("BenchmarkSuitePipelineMpeg2encGremio", pipeMetrics(build("mpeg2enc", partition.GREMIO{}))),
	)

	in := ks.Ref()
	mt, err := interp.RunMT(interp.MTConfig{
		Threads: ksDswp.Coco.Threads, NumQueues: ksDswp.Coco.NumQueues, QueueCap: ksDswp.QueueCap,
		Assign: ksDswp.Assign, Args: in.Args, Mem: in.Mem,
		MaxSteps: budget.Experiments().MeasureSteps,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs = append(rs, metrics("BenchmarkSuiteMTInterpKS", map[string]float64{
		"produce": float64(mt.Stats.Produce),
		"steps":   float64(mt.Steps),
	}))

	cycles, err := ksGremio.MeasureCycles(ksGremio.Machine(sim.DefaultConfig()), ksGremio.Coco)
	if err != nil {
		t.Fatal(err)
	}
	rs = append(rs, metrics("BenchmarkSuiteSimKS", map[string]float64{"cycles": float64(cycles)}))

	rs = append(rs, metrics("BenchmarkSuiteFingerprintMpeg2enc",
		map[string]float64{"words": suiteInputWords(workloads.MPEG2Enc())}))

	req := &serve.Request{Workload: "adpcmdec", Partitioner: "dswp", Sim: true}
	srv, before := suiteWarmServer(t, req)
	srv.Do(context.Background(), req)
	rs = append(rs, metrics("BenchmarkSuiteServeWarmAdpcmdec", suiteWarmMetrics(before, srv.StatsSnapshot(), 1)))
	return rs
}

func TestBenchSuiteBaseline(t *testing.T) {
	baseline, err := benchsuite.ReadFile("BENCH_pipeline.json")
	if os.IsNotExist(err) {
		t.Skip("no committed BENCH_pipeline.json baseline")
	}
	if err != nil {
		t.Fatal(err)
	}
	fresh := suiteFresh(t)
	for _, d := range benchsuite.Diff(baseline, fresh) {
		t.Errorf("bench baseline drift: %s", d)
	}
}
