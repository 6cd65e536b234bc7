// Benchmark-regression suite: the BenchmarkSuite* benchmarks cover each
// pipeline stage (PDG construction, min-cut, COCO's planner alone, the
// full per-workload pipelines, the multi-threaded interpreter, the
// cycle-level simulator)
// and the two halves of request keying (a kernel's first content hash, a
// warm request through serve.Server.Do), and serialize their results —
// wall-clock ns/op plus each stage's deterministic work metrics — to
// BENCH_pipeline.json whenever benchmarks run:
//
//	go test -run '^$' -bench BenchmarkSuite -benchtime 5x .
//
// CI archives the file per commit; the deterministic metrics must not
// drift between commits unless the change intends them to.
package gmt_test

import (
	"context"
	"flag"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/budget"
	"repro/internal/coco"
	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/randprog"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

var (
	suiteOnce sync.Once
	suiteRec  *benchsuite.Recorder
)

// allocMark snapshots the runtime's cumulative allocation counters so a
// benchmark can report per-op allocations alongside ns/op. Take the mark
// after setup (where b.ResetTimer goes) and pass it to suiteRecord.
type allocMark struct {
	mallocs, bytes uint64
}

func markAllocs() allocMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMark{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

// suiteRecord appends one BenchmarkSuite result to BENCH_pipeline.json.
// It records only when benchmarks actually run (-bench is set), so plain
// `go test` never touches the file.
func suiteRecord(b *testing.B, mark allocMark, metrics map[string]float64) {
	b.Helper()
	f := flag.Lookup("test.bench")
	if f == nil || f.Value.String() == "" {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	suiteOnce.Do(func() { suiteRec = benchsuite.NewRecorder("BENCH_pipeline.json") })
	res := benchsuite.Result{
		Name:        b.Name(),
		Iterations:  b.N,
		NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		AllocsPerOp: float64(m.Mallocs-mark.mallocs) / float64(b.N),
		BytesPerOp:  float64(m.TotalAlloc-mark.bytes) / float64(b.N),
		Metrics:     metrics,
	}
	if err := suiteRec.Record(res); err != nil {
		b.Fatal(err)
	}
}

func suiteWorkload(b *testing.B, name string) *workloads.Workload {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkSuitePDGBuild(b *testing.B) {
	w := suiteWorkload(b, "ks")
	mark := markAllocs()
	b.ResetTimer()
	var g *pdg.Graph
	for i := 0; i < b.N; i++ {
		g = pdg.Build(w.F, w.Objects)
	}
	suiteRecord(b, mark, map[string]float64{
		"arcs":  float64(g.NumArcs()),
		"nodes": float64(w.F.NumInstrs()),
	})
}

func BenchmarkSuiteMinCutEdmondsKarp(b *testing.B) {
	mark := markAllocs()
	var flow int64
	for i := 0; i < b.N; i++ {
		g, s, t := cfgShapedGraph(60, rand.New(rand.NewSource(5)))
		flow = g.MaxFlow(s, t)
		g.MinCutSourceSide(s)
	}
	suiteRecord(b, mark, map[string]float64{"max-flow": float64(flow)})
}

// suiteCocoInput is everything one coco.Plan call reads.
type suiteCocoInput struct {
	f      *ir.Function
	g      *pdg.Graph
	assign map[*ir.Instr]int
	prof   *ir.Profile
}

// suiteRandprog160 prepares the first 16 programs of the benchmark's
// default inline corpus (bench/corpus.go: seeds subSeed(DefaultSeed,
// "inline") + i, size 160, the other axes from the seed), profiled on
// their own input and partitioned as cold_inline sends them: straight-line
// programs by GREMIO, the rest by DSWP.
func suiteRandprog160(tb testing.TB) []suiteCocoInput {
	tb.Helper()
	const base = 7454799319867459659
	ins := make([]suiteCocoInput, 16)
	for i := range ins {
		axes, p := randprog.GenerateSized(base+int64(i), 160)
		res, err := interp.Run(p.F, p.Args, append([]int64(nil), p.Mem...), budget.Experiments().ProfileSteps)
		if err != nil {
			tb.Fatal(err)
		}
		var part partition.Partitioner = partition.DSWP{}
		if axes.Shape == randprog.ShapeStraight {
			part = partition.GREMIO{}
		}
		g := pdg.Build(p.F, p.Objects)
		assign, err := part.Partition(p.F, g, res.Profile, 2)
		if err != nil {
			tb.Fatal(err)
		}
		ins[i] = suiteCocoInput{f: p.F, g: g, assign: assign, prof: res.Profile}
	}
	return ins
}

// suiteCocoPlans runs COCO's planner once over every input and returns
// what it decided: communications, their placement points, and passes of
// Algorithm 2's repeat-until loop.
func suiteCocoPlans(tb testing.TB, ins []suiteCocoInput) map[string]float64 {
	tb.Helper()
	var comms, points, iterations int
	for _, in := range ins {
		plan, err := coco.Plan(in.f, in.g, in.assign, 2, in.prof, coco.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		comms += len(plan.Comms)
		for _, c := range plan.Comms {
			points += len(c.Points)
		}
		iterations += plan.Iterations
	}
	return map[string]float64{
		"comms":      float64(comms),
		"points":     float64(points),
		"iterations": float64(iterations),
	}
}

// BenchmarkSuiteCocoPlanRandprog160 times coco.Plan alone — the layer that
// was 61 % of a cold_inline request — on programs of that workload's size.
func BenchmarkSuiteCocoPlanRandprog160(b *testing.B) {
	ins := suiteRandprog160(b)
	mark := markAllocs()
	b.ResetTimer()
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		m = suiteCocoPlans(b, ins)
	}
	suiteRecord(b, mark, m)
}

// benchSuitePipeline times the full compilation pipeline (profile, PDG,
// partition, MTCG, COCO, queue allocation) for one workload × partitioner.
func benchSuitePipeline(b *testing.B, workload string, part partition.Partitioner) {
	w := suiteWorkload(b, workload)
	mark := markAllocs()
	b.ResetTimer()
	var p *exp.Pipeline
	for i := 0; i < b.N; i++ {
		var err error
		p, err = exp.Build(w, part, coco.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	suiteRecord(b, mark, map[string]float64{
		"coco-instrs":  suiteProgInstrs(p, true),
		"coco-queues":  float64(p.Coco.NumQueues),
		"naive-instrs": suiteProgInstrs(p, false),
		"naive-queues": float64(p.Naive.NumQueues),
	})
}

func suiteProgInstrs(p *exp.Pipeline, coco bool) float64 {
	prog := p.Naive
	if coco {
		prog = p.Coco
	}
	var n int
	for _, f := range prog.Threads {
		n += f.NumInstrs()
	}
	return float64(n)
}

func BenchmarkSuitePipelineKSGremio(b *testing.B) {
	benchSuitePipeline(b, "ks", partition.GREMIO{})
}

func BenchmarkSuitePipelineKSDSWP(b *testing.B) {
	benchSuitePipeline(b, "ks", partition.DSWP{})
}

func BenchmarkSuitePipelineMpeg2encGremio(b *testing.B) {
	benchSuitePipeline(b, "mpeg2enc", partition.GREMIO{})
}

func BenchmarkSuiteMTInterpKS(b *testing.B) {
	w := suiteWorkload(b, "ks")
	p, err := exp.Build(w, partition.DSWP{}, coco.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	mark := markAllocs()
	b.ResetTimer()
	var mt *interp.MTResult
	for i := 0; i < b.N; i++ {
		in := w.Ref()
		mt, err = interp.RunMT(interp.MTConfig{
			Threads: p.Coco.Threads, NumQueues: p.Coco.NumQueues, QueueCap: p.QueueCap,
			Assign: p.Assign, Args: in.Args, Mem: in.Mem,
			MaxSteps: budget.Experiments().MeasureSteps,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	suiteRecord(b, mark, map[string]float64{
		"produce": float64(mt.Stats.Produce),
		"steps":   float64(mt.Steps),
	})
}

func BenchmarkSuiteSimKS(b *testing.B) {
	w := suiteWorkload(b, "ks")
	p, err := exp.Build(w, partition.GREMIO{}, coco.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	mark := markAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		cycles, err = p.MeasureCycles(p.Machine(sim.DefaultConfig()), p.Coco)
		if err != nil {
			b.Fatal(err)
		}
	}
	suiteRecord(b, mark, map[string]float64{"cycles": float64(cycles)})
}

// suiteInputWords counts what a workload's content hash renders besides
// the IR text: every argument and memory word of both input sets.
func suiteInputWords(w *workloads.Workload) float64 {
	train, ref := w.Train(), w.Ref()
	return float64(len(train.Args) + len(train.Mem) + len(ref.Args) + len(ref.Mem))
}

// BenchmarkSuiteFingerprintMpeg2enc times the content hash itself: what
// the first request for a kernel in a process, and every inline-IR
// request, pays. Directly constructed values never see the kernels
// table's memo, so each iteration hashes both images.
func BenchmarkSuiteFingerprintMpeg2enc(b *testing.B) {
	ws := make([]*workloads.Workload, b.N)
	for i := range ws {
		ws[i] = workloads.MPEG2Enc()
	}
	words := suiteInputWords(ws[0]) // builds both images: before the mark
	mark := markAllocs()
	b.ResetTimer()
	var fp string
	for _, w := range ws {
		fp = w.Fingerprint()
	}
	if len(fp) != 64 {
		b.Fatalf("fingerprint %q", fp)
	}
	suiteRecord(b, mark, map[string]float64{"words": words})
}

// suiteWarmServer returns a memory-only server that has already computed
// req, and its counters at that point.
func suiteWarmServer(tb testing.TB, req *serve.Request) (*serve.Server, serve.Stats) {
	tb.Helper()
	s, err := serve.New(serve.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if res := s.Do(context.Background(), req); res.Source != "cold" {
		tb.Fatalf("first request: status %d source %q: %s", res.Status, res.Source, res.Body)
	}
	return s, s.StatsSnapshot()
}

// suiteWarmMetrics is the work n warm requests did since before: no
// computation, and one memory hit each (per request, so the metric does
// not depend on -benchtime).
func suiteWarmMetrics(before, after serve.Stats, n int) map[string]float64 {
	return map[string]float64{
		"compute": float64(after.Compute - before.Compute),
		"hit_mem": float64(after.CacheHitMem-before.CacheHitMem) / float64(n),
	}
}

// BenchmarkSuiteServeWarmAdpcmdec times a warm request end to end inside
// the process: resolve the kernel, key it, read the memory layer, render
// the trace. adpcmdec is the kernel a quarter of warm_zipf's traffic asks
// for.
func BenchmarkSuiteServeWarmAdpcmdec(b *testing.B) {
	req := &serve.Request{Workload: "adpcmdec", Partitioner: "dswp", Sim: true}
	s, before := suiteWarmServer(b, req)
	ctx := context.Background()
	mark := markAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := s.Do(ctx, req); res.Source != "warm" {
			b.Fatalf("status %d source %q: %s", res.Status, res.Source, res.Body)
		}
	}
	suiteRecord(b, mark, suiteWarmMetrics(before, s.StatsSnapshot(), b.N))
}
