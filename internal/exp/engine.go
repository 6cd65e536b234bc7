package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/coco"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/mtcg"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Jobs is the worker-pool size for experiment matrices; <= 0 means
	// runtime.GOMAXPROCS(0). Jobs == 1 restores the serial path.
	Jobs int
	// Budget bounds interpreter and simulator runs; zero fields default
	// to budget.Experiments(), the paper's limits.
	Budget budget.Budget
	// Coco, when non-nil, overrides coco.DefaultOptions() for every
	// pipeline the engine builds (nil rather than a zero Options because
	// the zero value — everything off — is a meaningful ablation).
	Coco *coco.Options
	// Obs, when non-nil, records every pipeline phase, interpreter run,
	// and simulation into its trace/metrics sinks. Memoization means each
	// phase is recorded exactly once per engine regardless of Jobs, so
	// the written trace is identical at any worker-pool size.
	Obs *Obs
	// Chaos, when non-nil, arms a destructive fault on every measurement:
	// each attempt measures its programs' mutants (fault.Mutate over the
	// workload's reference run) in their place, the same mutants at any
	// Jobs setting. A benign class changes no program, and so nothing.
	// Mutants are counted in Stats and the "fault.injected" metrics
	// counter.
	Chaos *fault.Spec
	// Degrade enables the graceful-degradation chain: a matrix cell whose
	// pipeline or measurement fails falls back requested partitioner →
	// alternate partitioner → single-threaded execution instead of
	// aborting the whole experiment. Fallbacks are recorded in the row's
	// Fallback field, in Stats, and in the "exp.fallbacks" counter.
	// Context cancellation is never absorbed.
	Degrade bool
}

// Engine runs the workload × partitioner experiment matrix concurrently,
// memoizing per-workload analysis artifacts. The train-input profile and
// the PDG are computed exactly once per workload, and each (workload,
// partitioner) pipeline exactly once per engine, shared between the
// communication and speedup experiments; the serial harness recomputed
// both for every figure. All caches are filled under sync.Once, so any
// number of concurrent experiments observe exactly one build.
//
// A workload here is one *workloads.Workload value, not its name or its
// content: a PDG, a partition and an MTCG plan are maps over the
// instructions of the ir.Function they were built from, so an artifact
// is only valid for that function. Two values with equal content (two
// workloads.KS() calls) get separate slots; pass the same pointer to
// share one.
//
// Results are deterministic: matrix cells are identified by their index in
// the serial iteration order and written to preallocated slots, so an
// engine at any Jobs setting emits byte-identical rows to the serial path.
//
// Cache slots record the first outcome permanently (sync.Once), including
// a cancellation that landed mid-build — discard an engine whose run was
// cancelled rather than reusing it. internal/serve honours that by
// building one engine per computation.
type Engine struct {
	jobs    int
	budget  budget.Budget
	opts    coco.Options
	obs     *Obs
	chaos   *fault.Spec
	degrade bool

	profileRuns    atomic.Int64
	pdgBuilds      atomic.Int64
	referenceRuns  atomic.Int64
	stSimulations  atomic.Int64
	fallbacks      atomic.Int64
	faultsInjected atomic.Int64

	mu        sync.Mutex
	artifacts map[*workloads.Workload]*memo[*Artifact]
	pipelines map[pipeKey]*memo[*Pipeline]
	refs      map[*workloads.Workload]*memo[*interp.Result]
	stCycles  map[stKey]*memo[int64]

	// imgs holds the working images the engine's runs take and give
	// back: copies of their workloads' Inputs, reused across runs.
	imgs images
}

// memo is a once-filled cache slot.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

// do fills the slot on first use and returns the cached result afterwards.
// A fill that panics is an outcome too: the slot keeps the panic as its
// error, so no caller, first or later, reads the zero value as a result.
func (m *memo[T]) do(f func() (T, error)) (T, error) {
	m.once.Do(func() {
		defer func() {
			if v := recover(); v != nil {
				m.err = &panicError{v}
			}
		}()
		m.val, m.err = f()
	})
	return m.val, m.err
}

// panicError is a panic recovered where it could not be classified, kept
// as an error that stageError classifies FailPanic.
type panicError struct{ v any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.v) }

// slot returns key's once-filled slot in table, creating it on first use.
func slot[K comparable, V any](mu *sync.Mutex, table map[K]*memo[V], key K) *memo[V] {
	mu.Lock()
	defer mu.Unlock()
	s, ok := table[key]
	if !ok {
		s = &memo[V]{}
		table[key] = s
	}
	return s
}

type pipeKey struct {
	w    *workloads.Workload
	part string // partitioner name
}

type stKey struct {
	w   *workloads.Workload
	cfg sim.Config
}

// NewEngine returns an engine with empty caches.
func NewEngine(o EngineOptions) *Engine {
	opts := coco.DefaultOptions()
	if o.Coco != nil {
		opts = *o.Coco
	}
	return &Engine{
		jobs:      o.Jobs,
		budget:    o.Budget.OrElse(budget.Experiments()),
		opts:      opts,
		obs:       o.Obs,
		chaos:     o.Chaos,
		degrade:   o.Degrade,
		artifacts: map[*workloads.Workload]*memo[*Artifact]{},
		pipelines: map[pipeKey]*memo[*Pipeline]{},
		refs:      map[*workloads.Workload]*memo[*interp.Result]{},
		stCycles:  map[stKey]*memo[int64]{},
	}
}

// EngineStats counts the expensive analysis work an engine has performed;
// tests assert the caches collapse the 4× recomputation of the serial
// harness to exactly one profile and one PDG per workload.
type EngineStats struct {
	ProfileRuns int64 // train-input interpreter passes
	PDGBuilds   int64 // PDG constructions
	// Fallbacks counts degradation-chain steps taken (stages fallen back
	// from); FaultsInjected counts the mutants measured and the chaos
	// cells the fault changed.
	Fallbacks      int64
	FaultsInjected int64
	// ReferenceRuns counts single-threaded runs on a reference input and
	// STSimulations single-threaded simulations: a workload's baseline,
	// which SeedBaseline saves both of.
	ReferenceRuns int64
	STSimulations int64
}

// Stats returns the engine's work counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		ProfileRuns:    e.profileRuns.Load(),
		PDGBuilds:      e.pdgBuilds.Load(),
		Fallbacks:      e.fallbacks.Load(),
		FaultsInjected: e.faultsInjected.Load(),
		ReferenceRuns:  e.referenceRuns.Load(),
		STSimulations:  e.stSimulations.Load(),
	}
}

// noteFallback records one degradation step in the engine stats and the
// "exp.fallbacks" metrics counter.
func (e *Engine) noteFallback() {
	e.fallbacks.Add(1)
	if e.obs != nil && e.obs.Metrics != nil {
		e.obs.Metrics.Scope("exp").Counter("fallbacks").Inc()
	}
}

// noteInjected records injected faults in the engine stats and the
// "fault.injected" metrics counter.
func (e *Engine) noteInjected(n int64) {
	if n == 0 {
		return
	}
	e.faultsInjected.Add(n)
	if e.obs != nil && e.obs.Metrics != nil {
		e.obs.Metrics.Scope("fault").Counter("injected").Add(n)
	}
}

// Artifact returns w's memoized profile + PDG, computing them on first use.
func (e *Engine) Artifact(ctx context.Context, w *workloads.Workload) (*Artifact, error) {
	return slot(&e.mu, e.artifacts, w).do(func() (*Artifact, error) {
		e.profileRuns.Add(1)
		e.pdgBuilds.Add(1)
		return buildArtifact(ctx, w, e.budget, e.obs, &e.imgs)
	})
}

// Pipeline returns the memoized pipeline for (w, part), building it — and
// its underlying artifact — on first use.
func (e *Engine) Pipeline(ctx context.Context, w *workloads.Workload, part partition.Partitioner) (*Pipeline, error) {
	return slot(&e.mu, e.pipelines, pipeKey{w, part.Name()}).do(func() (*Pipeline, error) {
		art, err := e.Artifact(ctx, w)
		if err != nil {
			return nil, err
		}
		p, err := buildFromArtifact(ctx, w, part, e.opts, art, e.budget, e.obs)
		if err != nil {
			return nil, err
		}
		p.eng = e
		return p, nil
	})
}

// SingleThreadedCycles returns w's memoized single-threaded cycle count on
// the given machine.
func (e *Engine) SingleThreadedCycles(ctx context.Context, cfg sim.Config, w *workloads.Workload) (int64, error) {
	return slot(&e.mu, e.stCycles, stKey{w, cfg}).do(func() (int64, error) {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("exp: single-threaded %s: %w", w.Name, err)
		}
		e.stSimulations.Add(1)
		return singleThreadedCycles(cfg, w, e.budget, e.obs, &e.imgs)
	})
}

// Reference returns w's reference run — its edge profile and step count
// are what the cells read — running it within the MeasureSteps budget on
// first use only. Together with SingleThreadedCycles it reads back the
// baseline the engine's cells left, computing nothing once they ran. The
// result's Mem is nil: the run's working image went back to the engine.
func (e *Engine) Reference(ctx context.Context, w *workloads.Workload) (*interp.Result, error) {
	return slot(&e.mu, e.refs, w).do(func() (*interp.Result, error) {
		e.referenceRuns.Add(1)
		return runReference(ctx, w, e.budget.MeasureSteps, &e.imgs)
	})
}

// CommCell measures a single (workload, partitioner) matrix cell — the
// unit of work the serve daemon computes per request. The degradation
// chain applies exactly as in CommExperiment.
func (e *Engine) CommCell(ctx context.Context, w *workloads.Workload, part partition.Partitioner) (CommRow, error) {
	return e.commCell(ctx, cell{part: part, w: w}, nil)
}

// CommCellSpan is CommCell with per-call trace capture: each attempt of
// the degradation chain, its pipeline/measure stages, and every
// fallback hop are recorded as children of sp — the serve daemon's
// per-request span tree; EngineOptions.Obs is the experiment-wide
// trace/metrics sink. A nil span records nothing.
func (e *Engine) CommCellSpan(ctx context.Context, w *workloads.Workload, part partition.Partitioner, sp *obs.Span) (CommRow, error) {
	return e.commCell(ctx, cell{part: part, w: w}, sp)
}

// SpeedupCell simulates a single (workload, partitioner) matrix cell on
// the given machine, with the degradation chain of SpeedupExperiment.
func (e *Engine) SpeedupCell(ctx context.Context, cfg sim.Config, w *workloads.Workload, part partition.Partitioner) (SpeedupRow, error) {
	return e.speedupCell(ctx, cfg, cell{part: part, w: w}, nil)
}

// SpeedupCellSpan is SpeedupCell with per-call trace capture into sp
// (which may be nil), mirroring CommCellSpan.
func (e *Engine) SpeedupCellSpan(ctx context.Context, cfg sim.Config, w *workloads.Workload, part partition.Partitioner, sp *obs.Span) (SpeedupRow, error) {
	return e.speedupCell(ctx, cfg, cell{part: part, w: w}, sp)
}

// cell identifies one matrix position: the serial iteration order is
// partitioner-major (for each partitioner, for each workload), which the
// index encodes so parallel runs fill rows identically.
type cell struct {
	part partition.Partitioner
	w    *workloads.Workload
}

// fanOut computes one row per item on the engine's worker pool. Each row is
// written to its item's slot, so the result is in item order at any Jobs
// setting; what names the experiment in the error of a failed fan-out.
func fanOut[K, R any](ctx context.Context, e *Engine, what string, items []K, fn func(K) (R, error)) ([]R, error) {
	rows := make([]R, len(items))
	err := par.Run(ctx, e.jobs, len(items), func(i int) (err error) {
		rows[i], err = fn(items[i])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", what, err)
	}
	return rows, nil
}

func matrix(ws []*workloads.Workload) []cell {
	var cs []cell
	for _, part := range Partitioners() {
		for _, w := range ws {
			cs = append(cs, cell{part: part, w: w})
		}
	}
	return cs
}

// CommExperiment produces the data behind Figures 1 and 7 for all
// workloads under both partitioners, fanning the matrix out over the
// engine's worker pool. Rows are in the serial order regardless of Jobs.
// With Degrade enabled, a failing cell falls back (alternate partitioner,
// then single-threaded) instead of aborting the matrix; the row's Fallback
// field records what happened.
func (e *Engine) CommExperiment(ctx context.Context, ws []*workloads.Workload) ([]CommRow, error) {
	return fanOut(ctx, e, "communication experiment", matrix(ws), func(c cell) (CommRow, error) {
		return e.commCell(ctx, c, nil)
	})
}

// commCell measures one matrix cell's dynamic instruction mix; its last
// resort is the unpartitioned program on the counting interpreter.
func (e *Engine) commCell(ctx context.Context, c cell, sp *obs.Span) (CommRow, error) {
	row := CommRow{Workload: c.w.Name, Partitioner: c.part.Name()}
	var err error
	row.Naive, row.Coco, row.Fallback, err = chain(ctx, e, c, sp, "measure",
		func(p *Pipeline, run, prog *mtcg.Program, msp *obs.Span) (interp.CommStats, error) {
			st, err := p.measureComm(ctx, run, prog)
			msp.SetInt("compute", st.Compute).SetInt("produce", st.Produce)
			return st, err
		},
		func() (interp.CommStats, error) { return e.singleThreadedComm(ctx, c.w) })
	return row, err
}

// SpeedupExperiment produces Figure 8's data on the given machine, fanning
// the matrix out over the engine's worker pool. Single-threaded baselines
// are memoized per workload, as in the serial harness. With Degrade
// enabled, a failing cell falls back (alternate partitioner, then the
// single-threaded baseline itself — speedup 1.0x) instead of aborting.
func (e *Engine) SpeedupExperiment(ctx context.Context, cfg sim.Config, ws []*workloads.Workload) ([]SpeedupRow, error) {
	return fanOut(ctx, e, "speedup experiment", matrix(ws), func(c cell) (SpeedupRow, error) {
		return e.speedupCell(ctx, cfg, c, nil)
	})
}

// speedupCell simulates one matrix cell; its last resort is the
// single-threaded baseline itself (speedup 1.0x). With chaos armed the
// no-progress watchdog is lowered so a mutant's deadlock fails in bounded
// time.
func (e *Engine) speedupCell(ctx context.Context, cfg sim.Config, c cell, sp *obs.Span) (SpeedupRow, error) {
	row := SpeedupRow{Workload: c.w.Name, Partitioner: c.part.Name()}
	ssp := sp.Child("single-threaded-baseline")
	st, err := e.SingleThreadedCycles(ctx, cfg, c.w)
	ssp.SetInt("cycles", st)
	ssp.Finish()
	if err != nil {
		return row, err
	}
	row.STCycles = st
	row.NaiveCycles, row.CocoCycles, row.Fallback, err = chain(ctx, e, c, sp, "simulate",
		func(p *Pipeline, run, prog *mtcg.Program, msp *obs.Span) (int64, error) {
			mtCfg := p.Machine(cfg)
			if e.chaos != nil {
				mtCfg.StallLimit = fault.StallLimit
			}
			cycles, err := p.measureCycles(mtCfg, run, prog, msp)
			msp.SetInt("cycles", cycles)
			return cycles, err
		},
		func() (int64, error) { return st, nil })
	return row, err
}

// measureFunc measures run — one generated program prog of a built
// pipeline, or prog's mutant when chaos is armed — and stamps what it
// measured on msp.
type measureFunc[T any] func(p *Pipeline, run, prog *mtcg.Program, msp *obs.Span) (T, error)

// chain measures cell c with the degradation policy every cell kind
// shares: the requested partitioner and, when Degrade is on, the alternate
// partitioner and then single, the always-correct single-threaded last
// resort. It returns the naive and the COCO program's measurement and what
// the chain substituted ("" when the cell ran as requested). Each attempt
// and each fallback hop is recorded as a child of sp (which may be nil).
// stage names what measure does ("measure", "simulate") in spans and
// StageErrors. A context error is never absorbed.
func chain[T any](ctx context.Context, e *Engine, c cell, sp *obs.Span, stage string,
	measure measureFunc[T], single func() (T, error)) (naive, opt T, fallback string, err error) {
	attempts := []partition.Partitioner{c.part}
	if e.degrade {
		attempts = append(attempts, fallbackFor(c.part)...)
	}
	for _, part := range attempts {
		asp := sp.Child("attempt")
		if part == nil { // last resort: the unpartitioned program
			asp.SetStr("partitioner", FallbackSingle)
			st, err := single()
			if err != nil {
				asp.SetStr("outcome", "failed")
				asp.Finish()
				return naive, opt, "", err
			}
			asp.SetStr("outcome", "ok")
			asp.Finish()
			return st, st, FallbackSingle, nil
		}
		asp.SetStr("partitioner", part.Name())
		n, o, serr := attempt(ctx, e, c.w, part, asp, stage, measure)
		if serr == nil {
			if part.Name() != c.part.Name() {
				fallback = part.Name()
			}
			asp.SetStr("outcome", "ok")
			asp.Finish()
			return n, o, fallback, nil
		}
		asp.SetStr("outcome", "failed").SetStr("stage", serr.Stage).SetStr("class", string(serr.Class))
		asp.Finish()
		if !e.degrade || isCtxErr(serr) {
			return naive, opt, "", serr
		}
		e.noteFallback()
		hop := sp.Child("degrade")
		hop.SetStr("from", serr.Partitioner).SetStr("stage", serr.Stage).SetStr("class", string(serr.Class))
		hop.Finish()
	}
	return naive, opt, "", fmt.Errorf("exp: %s/%s: degradation chain exhausted", c.w.Name, c.part.Name())
}

// attempt builds one (workload, partitioner) pipeline and measures its
// naive and its COCO program, converting any failure — including a panic —
// into a structured StageError.
func attempt[T any](ctx context.Context, e *Engine, w *workloads.Workload, part partition.Partitioner,
	sp *obs.Span, stage string, measure measureFunc[T]) (naive, opt T, serr *StageError) {
	defer func() {
		if v := recover(); v != nil {
			serr = recovered(stage, w, part, v)
		}
	}()
	psp := sp.Child("pipeline")
	p, err := e.Pipeline(ctx, w, part)
	psp.Finish()
	if err != nil {
		return naive, opt, stageError("pipeline", w, part, err)
	}
	var out [2]T
	for i, prog := range [2]*mtcg.Program{p.Naive, p.Coco} {
		label, _ := p.progLabel(prog)
		msp := sp.Child(stage + "-" + label)
		run, err := e.armed(ctx, p, prog)
		if err == nil {
			out[i], err = measure(p, run, prog, msp)
		}
		msp.Finish()
		if err != nil {
			return naive, opt, stageError(stage, w, part, err)
		}
	}
	return out[0], out[1], nil
}

// armed returns the program a measurement of prog runs: prog itself, or,
// with chaos armed, its mutant over the workload's reference run, when the
// fault has somewhere to go there.
func (e *Engine) armed(ctx context.Context, p *Pipeline, prog *mtcg.Program) (*mtcg.Program, error) {
	if e.chaos == nil {
		return prog, nil
	}
	ref, err := p.reference(ctx)
	if err != nil {
		return nil, fmt.Errorf("exp: measuring %s/%s: %w", p.W.Name, p.Part.Name(), err)
	}
	mut, _, ok, err := fault.Mutate(prog, ref.Profile, *e.chaos)
	if !ok || err != nil {
		return prog, err
	}
	e.noteInjected(1)
	return mut, nil
}
