package exp

import (
	"context"
	"fmt"

	"repro/internal/budget"
	"repro/internal/oracle"
	"repro/internal/workloads"
)

// OracleRow summarizes the differential-oracle pass over one matrix cell
// (workload × partitioner, both communication plans).
type OracleRow struct {
	Workload    string
	Partitioner string
	// Programs and Runs count the generated programs checked and the
	// executor runs compared.
	Programs int
	Runs     int
	// Failures holds every divergence found (empty on a clean pass).
	Failures []oracle.Failure
}

// OracleExperiment cross-checks the whole workload × partitioner matrix
// with the differential-execution oracle: each cell's naive and COCO
// programs run on the train input under every scheduling policy, at the
// partitioner's queue depth and at single-entry depth, against the
// single-threaded golden run and the cycle-level simulator. It is the
// correctness gate the perf experiments stand on; a clean pass means no
// interleaving, queue depth, or executor disagrees on any workload.
func (e *Engine) OracleExperiment(ctx context.Context, ws []*workloads.Workload, schedSeed int64) ([]OracleRow, error) {
	return fanOut(ctx, e, "oracle experiment", matrix(ws), func(c cell) (OracleRow, error) {
		p, err := e.Pipeline(ctx, c.w, c.part)
		if err != nil {
			return OracleRow{}, err
		}
		row, err := oraclePass(c.w, p, schedSeed, e.budget)
		if err != nil {
			return row, fmt.Errorf("exp: oracle on %s/%s: %w", c.w.Name, c.part.Name(), err)
		}
		return row, nil
	})
}

// oraclePass checks one pipeline's two programs on the train input.
func oraclePass(w *workloads.Workload, p *Pipeline, schedSeed int64, b budget.Budget) (OracleRow, error) {
	b = b.OrElse(budget.Experiments())
	// The oracle copies the image before each run it makes, so every run
	// reads the workload's shared train input.
	train, _ := w.Inputs()
	golden, err := oracle.RunGolden(&oracle.Case{
		Name: w.Name, F: w.F, Objects: w.Objects,
		Args: train.Args, Mem: train.Mem,
	}, b.MeasureSteps)
	if err != nil {
		return OracleRow{}, fmt.Errorf("golden run: %w", err)
	}
	caps := []int{p.QueueCap}
	if p.QueueCap != 1 {
		caps = append(caps, 1)
	}
	opts := oracle.Options{
		Schedules: oracle.DefaultSchedules(schedSeed),
		QueueCaps: caps,
		MaxSteps:  b.MeasureSteps,
		SimCycles: b.SimCycles,
	}
	rep := &oracle.Report{}
	oracle.CheckProgram(rep, w.Name, golden, p.Part.Name()+"/naive", p.Naive, train.Args, train.Mem, opts)
	oracle.CheckProgram(rep, w.Name, golden, p.Part.Name()+"/coco", p.Coco, train.Args, train.Mem, opts)
	return OracleRow{
		Workload: w.Name, Partitioner: p.Part.Name(),
		Programs: rep.Programs, Runs: rep.Runs, Failures: rep.Failures,
	}, nil
}
