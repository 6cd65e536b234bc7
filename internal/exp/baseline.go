package exp

import (
	"context"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Baseline is what a workload's cells measure against and never depends on
// a partitioner: its reference run — the edge profile plain communication
// is counted over (Figures 1/7) and its step count — and its
// single-threaded cycles on one machine (Figure 8's numerator). An engine
// computes it once per workload; SeedBaseline hands an engine one computed
// before, so a caller that keeps baselines across engines (internal/serve,
// in its persistent cache) runs neither the reference interpretation nor
// the single-threaded simulation again.
type Baseline struct {
	Profile  *ir.Profile
	Steps    int64
	STCycles int64
}

// SeedBaseline fills w's reference-run slot and its single-threaded-cycles
// slot on cfg with b, before any cell of w runs; a slot already filled
// keeps its outcome. b must be what the engine would compute for w under
// its budget: the cells read it as their own.
func (e *Engine) SeedBaseline(w *workloads.Workload, cfg sim.Config, b Baseline) {
	slot(&e.mu, e.refs, w).do(func() (*reference, error) {
		return &reference{profile: b.Profile, steps: b.Steps}, nil
	})
	slot(&e.mu, e.stCycles, stKey{w, cfg}).do(func() (int64, error) {
		return b.STCycles, nil
	})
}

// Reference returns w's reference run — the edge profile and the step
// count its cells read — running it within the MeasureSteps budget on
// first use only. Together with SingleThreadedCycles it reads back the
// baseline the engine's cells left, computing nothing once they ran.
func (e *Engine) Reference(ctx context.Context, w *workloads.Workload) (*ir.Profile, int64, error) {
	ref, err := e.reference(ctx, w)
	if err != nil {
		return nil, 0, err
	}
	return ref.profile, ref.steps, nil
}
