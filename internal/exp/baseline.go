package exp

import (
	"repro/internal/interp"
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
	slot(&e.mu, e.refs, w).do(func() (*interp.Result, error) {
		return &interp.Result{Profile: b.Profile, Steps: b.Steps}, nil
	})
	slot(&e.mu, e.stCycles, stKey{w, cfg}).do(func() (int64, error) {
		return b.STCycles, nil
	})
}
