package exp

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Profile runs the cycle-attribution profiler over one generated program of
// a (workload, partitioner) pipeline: the simulation re-runs on the given
// machine with attribution and dependence-event collection enabled, and the
// report carries the exact per-core bucket decomposition plus the dynamic
// critical path. useCoco selects the COCO-optimized program (false = naive
// MTCG). When tr is non-nil the run's timeline — including produce→consume
// flow arrows — lands under pid in the trace.
func (e *Engine) Profile(ctx context.Context, cfg sim.Config, w *workloads.Workload,
	part partition.Partitioner, useCoco bool, tr *obs.Trace, pid int) (*profile.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exp: profiling %s/%s: %w", w.Name, part.Name(), err)
	}
	p, err := e.Pipeline(ctx, w, part)
	if err != nil {
		return nil, err
	}
	prog, label := p.Coco, "coco"
	if !useCoco {
		prog, label = p.Naive, "naive"
	}
	in := w.Ref()
	o := profile.Options{
		Workload:    w.Name,
		Partitioner: part.Name(),
		Program:     label,
		Cfg:         p.Machine(cfg),
		Threads:     prog.Threads,
		Args:        in.Args,
		Mem:         in.Mem,
		MaxCycles:   e.budget.SimCycles,
		Trace:       tr,
		Pid:         pid,
		Flows:       tr != nil,
	}
	if tr != nil {
		tr.ProcessName(pid, w.Name+"/"+part.Name()+"/"+label+" profile")
	}
	if e.obs != nil && e.obs.Metrics != nil {
		o.Metrics = e.obs.Metrics.Scope("profile." + w.Name + "." + part.Name() + "." + label)
	}
	return profile.Run(o)
}

// AnnotateSpeedups fills each speedup row's Note with the profiler's
// explanation of COCO's effect: the dominant per-bucket contributions to
// the naive→COCO cycle delta. Rows rescued by the degradation chain (or
// measured single-threaded) are left unannotated. Profiling re-simulates
// both programs of every cell, so this is as expensive as the speedup
// experiment itself; it fans out over the engine's worker pool and the
// notes are deterministic at any Jobs setting.
func (e *Engine) AnnotateSpeedups(ctx context.Context, cfg sim.Config, ws []*workloads.Workload, rows []SpeedupRow) error {
	byName := map[string]*workloads.Workload{}
	for _, w := range ws {
		byName[w.Name] = w
	}
	parts := map[string]partition.Partitioner{}
	for _, p := range Partitioners() {
		parts[p.Name()] = p
	}
	notes, err := fanOut(ctx, e, "explaining speedups", rows, func(r SpeedupRow) (string, error) {
		w, p := byName[r.Workload], parts[r.Partitioner]
		if w == nil || p == nil || r.Fallback != "" {
			return r.Note, nil
		}
		naive, err := e.Profile(ctx, cfg, w, p, false, nil, 0)
		if err != nil {
			return "", err
		}
		coco, err := e.Profile(ctx, cfg, w, p, true, nil, 0)
		if err != nil {
			return "", err
		}
		return profile.Explain(naive, coco).Summary(), nil
	})
	for i, n := range notes {
		rows[i].Note = n
	}
	return err
}
