package exp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/interp"
	"repro/internal/partition"
	"repro/internal/workloads"
)

// FailureClass classifies where in the pipeline a matrix cell failed; it is
// the structured half of a StageError and what the degradation chain keys
// its decisions on.
type FailureClass string

const (
	// FailPartition: the partitioner rejected the workload.
	FailPartition FailureClass = "partition"
	// FailCompile: MTCG, COCO, or queue allocation failed, or a generated
	// thread failed verification.
	FailCompile FailureClass = "compile"
	// FailExecution: an executor (interpreter or simulator) returned an
	// error — deadlock, step/cycle budget, bad program.
	FailExecution FailureClass = "execution"
	// FailPanic: a pipeline stage panicked; the panic was recovered and
	// converted into a structured error so one poisoned cell cannot abort
	// the whole experiment matrix.
	FailPanic FailureClass = "panic"
)

// StageError is a structured, typed pipeline failure: which cell, which
// stage, which class, and the underlying cause. The degradation chain
// records one per stage it falls back from.
type StageError struct {
	Class       FailureClass
	Stage       string // "pipeline", "measure", "simulate", ...
	Workload    string
	Partitioner string
	Err         error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("exp: %s/%s: %s stage failed (%s): %v",
		e.Workload, e.Partitioner, e.Stage, e.Class, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// stageError wraps err for one cell, classifying it by stage — or as
// FailPanic when it carries a panic a memo slot recovered; a nil err
// returns nil and an error that already is a StageError passes through.
func stageError(stage string, w *workloads.Workload, part partition.Partitioner, err error) *StageError {
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return se
	}
	var pe *panicError
	cls := FailExecution
	switch {
	case errors.As(err, &pe):
		cls = FailPanic
	case stage == "partition":
		cls = FailPartition
	case stage == "pipeline":
		cls = FailCompile
	}
	return &StageError{
		Class: cls, Stage: stage,
		Workload: w.Name, Partitioner: part.Name(), Err: err,
	}
}

// recovered converts a recovered panic value into a FailPanic StageError.
func recovered(stage string, w *workloads.Workload, part partition.Partitioner, v any) *StageError {
	return stageError(stage, w, part, &panicError{v})
}

// fallbackFor returns the degradation chain for a partitioner: the other
// real partitioner first, then single-threaded execution (nil sentinel).
// The chain ordering is deliberate: the alternate partitioner preserves the
// experiment's multi-threaded character (only the schedule changes), while
// single-threaded execution is the always-correct last resort — the
// original function run as-is, with zero communication.
func fallbackFor(part partition.Partitioner) []partition.Partitioner {
	var rest []partition.Partitioner
	for _, p := range Partitioners() {
		if p.Name() != part.Name() {
			rest = append(rest, p)
		}
	}
	return append(rest, nil) // nil = single-threaded
}

// FallbackSingle is the CommRow/SpeedupRow Fallback marker for the
// last-resort single-threaded degradation.
const FallbackSingle = "single-threaded"

// isCtxErr reports whether err is (or wraps) a context cancellation — the
// one failure the degradation chain must NOT absorb: a cancelled matrix
// should stop, not fall back to cheaper configurations.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// singleThreadedComm measures the original function single-threaded on the
// reference input: all instructions are computation, communication is zero.
// It is the last resort of the communication experiment's degradation chain
// and is correct by construction (it is the unpartitioned program's
// reference run, which the engine has already made if any pipeline of w
// measured its communication).
func (e *Engine) singleThreadedComm(ctx context.Context, w *workloads.Workload) (interp.CommStats, error) {
	ref, err := e.Reference(ctx, w)
	if err != nil {
		return interp.CommStats{}, fmt.Errorf("exp: single-threaded fallback for %s: %w", w.Name, err)
	}
	return interp.CommStats{Compute: ref.Steps}, nil
}
