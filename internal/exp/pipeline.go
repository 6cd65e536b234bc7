// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 4) — the machine table (Fig.
// 6(a)), the benchmark table (Fig. 6(b)), the dynamic-instruction breakdown
// (Fig. 1), the communication reduction from COCO (Fig. 7), and the
// speedups over single-threaded execution (Fig. 8) — using the paper's
// methodology: profile on the train input, measure on the reference input.
//
// Every job has one entry point, on Engine: it builds pipelines, measures
// cells and fans the workload × partitioner matrix out over a worker pool,
// memoizing per-workload analysis artifacts so the train-input profile and
// the PDG are computed exactly once per workload. A serial, uncached run is
// an engine with Jobs: 1 used once.
package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/coco"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Artifact holds the per-workload analysis results every pipeline needs:
// the train-input edge profile and the PDG. Both are read-only after
// construction — the interpreter, partitioners, COCO and MTCG only consult
// them — so one Artifact is safely shared by concurrent pipeline builds.
type Artifact struct {
	Profile *ir.Profile
	Graph   *pdg.Graph
}

// buildArtifact profiles w on its train input, on a working image from
// imgs, and builds its PDG.
func buildArtifact(ctx context.Context, w *workloads.Workload, b budget.Budget, o *Obs, imgs *images) (*Artifact, error) {
	b = b.OrElse(budget.Experiments())
	train, _ := w.Inputs()
	mem := imgs.take(train.Mem)
	prof, err := interp.RunCtx(ctx, w.F, train.Args, mem, b.ProfileSteps)
	imgs.give(mem)
	if err != nil {
		return nil, fmt.Errorf("exp: profiling %s: %w", w.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", w.Name, err)
	}
	lane := o.analysisLane(w.Name)
	s := o.scope(w.Name)
	lane.Span("profile", "pipeline", prof.Steps, obs.A("steps", prof.Steps))
	s.Timer("profile").Observe(prof.Steps)

	g := pdg.Build(w.F, w.Objects)
	nodes, arcs := int64(w.F.NumInstrs()), int64(g.NumArcs())
	lane.Span("pdg-build", "pipeline", nodes+arcs, obs.A("arcs", arcs), obs.A("nodes", nodes))
	s.Gauge("pdg.nodes").Set(nodes)
	s.Gauge("pdg.arcs").Set(arcs)
	return &Artifact{Profile: prof.Profile, Graph: g}, nil
}

// Pipeline holds everything produced for one (workload, partitioner) pair:
// the partition, the naive-MTCG program, and the COCO-optimized program.
type Pipeline struct {
	W      *workloads.Workload
	Part   partition.Partitioner
	Assign map[*ir.Instr]int
	Graph  *pdg.Graph
	// Profile is the train-input edge profile used for COCO's costs.
	Profile *ir.Profile
	Naive   *mtcg.Program
	Coco    *mtcg.Program
	// QueueCap is the synchronization-array queue depth the programs are
	// executed and simulated with: the paper's 32 entries for DSWP and
	// single-entry queues otherwise (partition.QueueCapFor).
	QueueCap int

	budget budget.Budget
	o      *Obs
	plain  measured
	// eng is the engine that built the pipeline: its one reference run of
	// W is shared by its other pipelines and its last resort, and its
	// working images are the ones the pipeline's runs take. A Pipeline
	// built as a literal has none: it keeps its own reference run in
	// plain.ref and each run copies its image privately.
	eng *Engine
}

// images returns the free list of working images the pipeline's runs take
// from: its engine's, or nil for a literal's private copies.
func (p *Pipeline) images() *images {
	if p.eng == nil {
		return nil
	}
	return &p.eng.imgs
}

// runReference runs w single-threaded on its reference input, on a
// working image from imgs, within maxSteps, the budget of the
// multi-threaded run it stands in for. A plain communication measurement
// counts a program's placement over the run's edge profile
// (mtcg.Program.Counts) instead of running the program, and the
// communication experiment's last resort reports its steps. It is not a
// train profile: nothing is partitioned or planned with it. The result's
// Mem is nil: the image it ran on goes back to imgs for the next run.
func runReference(ctx context.Context, w *workloads.Workload, maxSteps int64, imgs *images) (*interp.Result, error) {
	_, in := w.Inputs()
	mem := imgs.take(in.Mem)
	defer imgs.give(mem)
	res, err := interp.RunCtx(ctx, w.F, in.Args, mem, maxSteps)
	if res != nil {
		res.Mem = nil
	}
	return res, err
}

// measured is a pipeline's record of its plain simulations. A simulation
// that is not observed is a function of code, input and machine, and a
// pipeline fixes the input: where Coco is the same code as Naive (COCO
// found nothing to move) the simulation of one is the simulation of the
// other, and the second call reads it instead of running the simulator
// again. Results are filed under the program that ran and
// only the other program reads them: a program whose twin has not run is
// run each time it is simulated. The zero value is ready: a Pipeline built
// as a literal is treated as one an Engine built, with a reference run of
// its own.
type measured struct {
	mu            sync.Mutex
	decided, same bool
	cycles        map[plainRun]int64
	ref           memo[*interp.Result]
	// executed counts the executor runs the pipeline started, of any kind;
	// the tests hold it to one simulation per distinct program and no run
	// for a plain communication measurement.
	executed atomic.Int64
}

// plainRun names one recorded simulation: the program that ran and the
// machine it ran on.
type plainRun struct {
	prog *mtcg.Program
	cfg  sim.Config
}

// twin returns the pipeline's other program when prog is one of an
// identical Naive/Coco pair and the run is plain — no observer — and nil
// otherwise (a mutant of either has no twin). The comparison is made once
// per pipeline, on first use.
func (p *Pipeline) twin(prog *mtcg.Program) *mtcg.Program {
	var other *mtcg.Program
	switch prog {
	case p.Naive:
		other = p.Coco
	case p.Coco:
		other = p.Naive
	}
	if other == nil || other == prog || p.o != nil {
		return nil
	}
	m := &p.plain
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.decided {
		m.decided, m.same = true, sameProgram(prog, other)
	}
	if !m.same {
		return nil
	}
	return other
}

// sameProgram reports whether two generated programs are the same code,
// thread for thread.
func sameProgram(a, b *mtcg.Program) bool {
	if a.NumQueues != b.NumQueues || len(a.Threads) != len(b.Threads) {
		return false
	}
	for i, f := range a.Threads {
		if !f.SameCode(b.Threads[i]) {
			return false
		}
	}
	return true
}

// twinCycles returns what twin's simulation of the same kind as run
// measured, if it has one on record, and says on msp (which may be nil)
// whose it was. A nil twin has nothing on record.
func (p *Pipeline) twinCycles(twin *mtcg.Program, run plainRun, msp *obs.Span) (int64, bool) {
	if twin == nil {
		return 0, false
	}
	run.prog = twin
	p.plain.mu.Lock()
	c, ok := p.plain.cycles[run]
	p.plain.mu.Unlock()
	if ok {
		label, _ := p.progLabel(twin)
		msp.SetStr("same_as", label)
	}
	return c, ok
}

// record files a successful plain simulation for its twin to read; with
// no twin there is no reader and nothing is kept.
func (p *Pipeline) record(twin *mtcg.Program, run plainRun, cycles int64) {
	if twin == nil {
		return
	}
	p.plain.mu.Lock()
	defer p.plain.mu.Unlock()
	if p.plain.cycles == nil {
		p.plain.cycles = map[plainRun]int64{}
	}
	p.plain.cycles[run] = cycles
}

// progLabel names a measured program and gives its stable trace-pid bit:
// COCO's program is "coco"/1, everything else "naive"/0.
func (p *Pipeline) progLabel(prog *mtcg.Program) (string, int) {
	if prog != nil && prog == p.Coco {
		return "coco", 1
	}
	return "naive", 0
}

// progInstrs is the static size of a generated program across threads.
func progInstrs(prog *mtcg.Program) int64 {
	var n int64
	for _, f := range prog.Threads {
		n += int64(f.NumInstrs())
	}
	return n
}

// buildFromArtifact runs the partitioner-dependent tail of the pipeline —
// partitioning, naive MTCG, COCO, and queue allocation — over a
// precomputed (and possibly shared) artifact. It never mutates art.
func buildFromArtifact(ctx context.Context, w *workloads.Workload, part partition.Partitioner,
	art *Artifact, b budget.Budget, o *Obs) (*Pipeline, error) {

	g, prof := art.Graph, art.Profile
	assign, err := part.Partition(w.F, g, prof, 2)
	if err != nil {
		return nil, fmt.Errorf("exp: partitioning %s with %s: %w", w.Name, part.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", w.Name, part.Name(), err)
	}
	lane := o.partLane(w.Name, part.Name())
	sp := o.partScope(w.Name, part.Name())
	lane.Span("partition", "pipeline", int64(w.F.NumInstrs()), obs.A("threads", 2))
	sp.Timer("partition").Observe(int64(w.F.NumInstrs()))

	naive, err := mtcg.Generate(mtcg.NaivePlan(w.F, g, assign, 2))
	if err != nil {
		return nil, fmt.Errorf("exp: naive MTCG for %s/%s: %w", w.Name, part.Name(), err)
	}
	lane.Span("mtcg-naive", "pipeline", progInstrs(naive),
		obs.A("instrs", progInstrs(naive)), obs.A("queues", int64(naive.NumQueues)))
	na := queue.Allocate(naive)
	lane.Span("queue-alloc-naive", "pipeline", int64(na.Before),
		obs.A("after", int64(na.After)), obs.A("before", int64(na.Before)))
	sp.Gauge("naive.instrs").Set(progInstrs(naive))
	sp.Gauge("naive.queues").Set(int64(naive.NumQueues))

	plan, err := coco.Plan(w.F, g, assign, 2, prof, coco.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("exp: COCO for %s/%s: %w", w.Name, part.Name(), err)
	}
	lane.Span("coco-plan", "pipeline", int64(w.F.NumInstrs()))
	opt, err := mtcg.Generate(plan)
	if err != nil {
		return nil, fmt.Errorf("exp: optimized MTCG for %s/%s: %w", w.Name, part.Name(), err)
	}
	lane.Span("mtcg-coco", "pipeline", progInstrs(opt),
		obs.A("instrs", progInstrs(opt)), obs.A("queues", int64(opt.NumQueues)))
	ca := queue.Allocate(opt)
	lane.Span("queue-alloc-coco", "pipeline", int64(ca.Before),
		obs.A("after", int64(ca.After)), obs.A("before", int64(ca.Before)))
	sp.Gauge("coco.instrs").Set(progInstrs(opt))
	sp.Gauge("coco.queues").Set(int64(opt.NumQueues))

	return &Pipeline{
		W: w, Part: part, Assign: assign, Graph: g,
		Profile: prof, Naive: naive, Coco: opt,
		QueueCap: partition.QueueCapFor(part),
		budget:   b.OrElse(budget.Experiments()),
		o:        o,
	}, nil
}

// MeasureComm returns a generated program's dynamic instruction statistics
// on the reference input. MTCG's own output measured without an observer
// runs no program: its counts come from its placement over the workload's
// reference run (mtcg.Program.Counts), failing with interp.ErrStepLimit,
// as the run would, when they exceed the MeasureSteps budget. A program
// that records no Origins (a fault.Mutate mutant), or any program of an
// observed pipeline, runs on the counting interpreter.
func (p *Pipeline) MeasureComm(prog *mtcg.Program) (interp.CommStats, error) {
	return p.measureComm(context.Background(), prog)
}

// measureComm is MeasureComm under ctx.
func (p *Pipeline) measureComm(ctx context.Context, prog *mtcg.Program) (interp.CommStats, error) {
	if p.o == nil && prog.Origins != nil {
		return p.countComm(ctx, prog)
	}
	label, bit := p.progLabel(prog)
	_, in := p.W.Inputs()
	imgs := p.images()
	mem := imgs.take(in.Mem)
	defer imgs.give(mem)
	cfg := interp.MTConfig{
		Threads:   prog.Threads,
		NumQueues: prog.NumQueues,
		QueueCap:  p.QueueCap,
		Assign:    p.Assign,
		Args:      in.Args,
		Mem:       mem,
		MaxSteps:  p.measureBudget().MeasureSteps,
		Ctx:       ctx,
	}
	if p.o != nil {
		cfg.Metrics = p.o.partScope(p.W.Name, p.Part.Name()).Child(label + ".interp")
		cfg.Trace = p.o.interpLane(p.W.Name, p.Part.Name(), label, bit)
	}
	p.plain.executed.Add(1)
	mt, err := interp.RunMT(cfg)
	if err != nil {
		return interp.CommStats{}, fmt.Errorf("exp: measuring %s/%s: %w", p.W.Name, p.Part.Name(), err)
	}
	p.o.partLane(p.W.Name, p.Part.Name()).Span("measure-"+label, "measure",
		mt.Steps, obs.A("steps", mt.Steps))
	return mt.Stats, nil
}

// reference returns the workload's reference run, made on first use within
// the MeasureSteps budget.
func (p *Pipeline) reference(ctx context.Context) (*interp.Result, error) {
	if p.eng != nil {
		return p.eng.Reference(ctx, p.W)
	}
	return p.plain.ref.do(func() (*interp.Result, error) {
		return runReference(ctx, p.W, p.measureBudget().MeasureSteps, nil)
	})
}

// countComm is a plain communication measurement: prog's placement counted
// over the reference run's edge profile.
func (p *Pipeline) countComm(ctx context.Context, prog *mtcg.Program) (interp.CommStats, error) {
	steps := p.measureBudget().MeasureSteps
	ref, err := p.reference(ctx)
	if err != nil {
		return interp.CommStats{}, fmt.Errorf("exp: measuring %s/%s: %w", p.W.Name, p.Part.Name(), err)
	}
	st := prog.Counts(ref.Profile)
	if st.Total() > steps {
		return interp.CommStats{}, fmt.Errorf("exp: measuring %s/%s: %w (multi-threaded, %d steps counted)",
			p.W.Name, p.Part.Name(), interp.ErrStepLimit, st.Total())
	}
	return st, nil
}

// Machine returns cfg adjusted to the pipeline's partitioner: the
// synchronization-array queue depth becomes the partitioner's (32 entries
// for DSWP, single-entry otherwise). The experiment harness simulates
// multi-threaded programs on this machine; pass cfg directly to
// MeasureCycles to sweep machine parameters instead.
func (p *Pipeline) Machine(cfg sim.Config) sim.Config {
	if p.QueueCap > 0 {
		cfg.QueueCap = p.QueueCap
	}
	return cfg
}

// MeasureCycles simulates a generated program on the reference input and
// returns the cycle count. Where Coco is the same code as Naive, a plain
// simulation of the second of them returns the first one's result (see
// measured). The machine is taken as given; callers modeling
// the paper's per-partitioner queue depths wrap cfg with Machine first.
func (p *Pipeline) MeasureCycles(cfg sim.Config, prog *mtcg.Program) (int64, error) {
	return p.measureCycles(cfg, prog, nil)
}

// measureCycles is MeasureCycles with the caller's span msp (nil for none).
func (p *Pipeline) measureCycles(cfg sim.Config, prog *mtcg.Program, msp *obs.Span) (int64, error) {
	label, bit := p.progLabel(prog)
	twin, run := p.twin(prog), plainRun{prog: prog, cfg: cfg}
	if c, ok := p.twinCycles(twin, run, msp); ok {
		return c, nil
	}
	_, in := p.W.Inputs()
	imgs := p.images()
	mem := imgs.take(in.Mem)
	ob := p.o.simObserver(p.W.Name, p.Part.Name(), label, bit)
	p.plain.executed.Add(1)
	res, err := sim.RunObserved(cfg, prog.Threads, in.Args, mem, p.measureBudget().SimCycles, ob)
	imgs.give(mem)
	if err != nil {
		return 0, fmt.Errorf("exp: simulating %s/%s: %w", p.W.Name, p.Part.Name(), err)
	}
	p.o.partLane(p.W.Name, p.Part.Name()).Span("simulate-"+label, "measure",
		res.Cycles, obs.A("cycles", res.Cycles))
	p.record(twin, run, res.Cycles)
	return res.Cycles, nil
}

// measureBudget returns the pipeline's budget, defaulting for pipelines
// constructed by hand (a zero Pipeline literal in tests).
func (p *Pipeline) measureBudget() budget.Budget {
	return p.budget.OrElse(budget.Experiments())
}

// SingleThreadedCycles simulates the original function on one core.
func SingleThreadedCycles(cfg sim.Config, w *workloads.Workload) (int64, error) {
	return singleThreadedCycles(cfg, w, budget.Experiments(), nil, nil)
}

// singleThreadedCycles is SingleThreadedCycles within b, observed by o, on
// a working image from imgs.
func singleThreadedCycles(cfg sim.Config, w *workloads.Workload, b budget.Budget, o *Obs, imgs *images) (int64, error) {
	_, in := w.Inputs()
	mem := imgs.take(in.Mem)
	ob := o.simObserver(w.Name, "", "st", 0)
	res, err := sim.RunObserved(cfg, []*ir.Function{w.F}, in.Args, mem,
		b.OrElse(budget.Experiments()).SimCycles, ob)
	imgs.give(mem)
	if err != nil {
		return 0, fmt.Errorf("exp: single-threaded %s: %w", w.Name, err)
	}
	o.analysisLane(w.Name).Span("simulate-st", "measure", res.Cycles, obs.A("cycles", res.Cycles))
	return res.Cycles, nil
}

// Partitioners returns the two GMT schedulers of the evaluation.
func Partitioners() []partition.Partitioner {
	return []partition.Partitioner{partition.GREMIO{}, partition.DSWP{}}
}
