package exp

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/fault"
	"repro/internal/oracle"
	"repro/internal/workloads"
)

// Chaos cell outcomes.
const (
	// ChaosDetected: the oracle reported at least one named failure kind.
	ChaosDetected = "detected"
	// ChaosTolerated: the fault was injected and every check passed —
	// the run completed with correct live-outs and intact invariants.
	ChaosTolerated = "tolerated"
	// ChaosNotInjected: the fault had nowhere to go (e.g. swap-queue on a
	// single-queue program, shrink-queue at depth 1); the cell is vacuous.
	ChaosNotInjected = "not-injected"
)

// ChaosCell is one entry of the detector-coverage matrix: what happened
// when one fault class was injected into one (workload, partitioner)
// pipeline and the result pushed through the differential oracle.
type ChaosCell struct {
	Workload    string
	Partitioner string
	Class       fault.Class
	Outcome     string
	// Kinds lists the distinct oracle failure kinds observed, in first-
	// occurrence order (empty unless Outcome is ChaosDetected).
	Kinds []string
	// Injected is 1 when the fault changed the cell's program or its
	// runs, 0 when it had nowhere to go.
	Injected int64
	// Schedule describes the change (the mutant's edit, the shrunk
	// capacity, the stall window) — byte-identical across runs with the
	// same seed.
	Schedule string
	// Detail is the first failure line (detected cells only).
	Detail string
}

// Expected reports whether the cell met its fault class's contract
// (fault.Class.Judge): destructive classes (and the mis-specified plan)
// must be detected, benign classes tolerated, and a cell whose fault had
// nowhere to go must be clean.
func (c ChaosCell) Expected() bool {
	return c.Class.Judge(c.Injected, c.Outcome != ChaosDetected) == fault.VerdictOK
}

// ChaosOK reports whether every cell met its contract.
func ChaosOK(cells []ChaosCell) bool {
	for _, c := range cells {
		if !c.Expected() {
			return false
		}
	}
	return true
}

// CoverageMatrix runs the detector-coverage matrix — mutation testing for
// the runtime's guardrails: every (workload × partitioner × fault class)
// cell arms one deterministic fault on the cell's naive program — for a
// destructive class, one edit at a communication site the train input
// executes — and pushes it through the differential oracle on the train
// input. The returned cells are in a fixed order (partitioner-major, then
// workload, then fault.Classes() order) and are deterministic at any Jobs
// setting: the same seed yields byte-identical rendered reports.
//
// The returned error reports infrastructure problems (a pipeline that
// won't build, a golden run that won't finish); fault detection results —
// including unexpected outcomes — are in the cells.
func (e *Engine) CoverageMatrix(ctx context.Context, ws []*workloads.Workload, seed int64) ([]ChaosCell, error) {
	type key struct {
		c   cell
		cls fault.Class
	}
	var keys []key
	for _, c := range matrix(ws) {
		for _, cls := range fault.Classes() {
			keys = append(keys, key{c, cls})
		}
	}
	return fanOut(ctx, e, "coverage matrix", keys, func(k key) (ChaosCell, error) {
		return e.chaosCell(ctx, k.c, k.cls, seed)
	})
}

// chaosCell runs one coverage cell through the oracle.
func (e *Engine) chaosCell(ctx context.Context, c cell, cls fault.Class, seed int64) (ChaosCell, error) {
	out := ChaosCell{Workload: c.w.Name, Partitioner: c.part.Name(), Class: cls}
	p, err := e.Pipeline(ctx, c.w, c.part)
	if err != nil {
		return out, err
	}
	// The oracle copies the image before each run it makes, so every run
	// reads the workload's shared train input.
	train, _ := c.w.Inputs()
	golden, err := oracle.RunGolden(&oracle.Case{
		Name: c.w.Name, F: c.w.F, Objects: c.w.Objects,
		Args: train.Args, Mem: train.Mem,
	}, e.budget.MeasureSteps)
	if err != nil {
		return out, fmt.Errorf("exp: chaos golden run of %s: %w", c.w.Name, err)
	}
	opts := oracle.Options{
		// Two schedules keep the cell cheap while still exercising both a
		// fair and an adversarial interleaving against the same schedule.
		Schedules:     []oracle.SchedSpec{{Name: "round-robin"}, {Name: "adversarial"}},
		QueueCaps:     []int{p.QueueCap},
		MaxSteps:      e.budget.MeasureSteps,
		SimCycles:     e.budget.SimCycles,
		SimStallLimit: fault.StallLimit,
		Inject:        &fault.Spec{Class: cls, Seed: seed},
	}
	rep := &oracle.Report{}
	label := fmt.Sprintf("%s/chaos=%s", c.part.Name(), cls)
	oracle.CheckProgram(rep, c.w.Name, golden, label, p.Naive, train.Args, train.Mem, opts)
	out.Injected, out.Schedule = rep.Injected, rep.FaultSchedule
	switch {
	case len(rep.Failures) > 0:
		out.Outcome = ChaosDetected
		seen := map[string]bool{}
		for _, f := range rep.Failures {
			if k := string(f.Kind); !seen[k] {
				seen[k] = true
				out.Kinds = append(out.Kinds, k)
			}
		}
		out.Detail = rep.Failures[0].String()
	case out.Injected == 0:
		out.Outcome = ChaosNotInjected
	default:
		out.Outcome = ChaosTolerated
	}
	return out, nil
}

// RenderChaos writes the coverage matrix as a deterministic table: same
// cells ⇒ same bytes. Unexpected cells are flagged with "!!".
func RenderChaos(w io.Writer, seed int64, cells []ChaosCell) {
	fmt.Fprintf(w, "Detector-coverage matrix (chaos seed %d)\n", seed)
	fmt.Fprintf(w, "%-12s %-8s %-14s %-13s %10s  %s\n",
		"workload", "sched", "fault", "outcome", "injected", "kinds")
	expected := 0
	for _, c := range cells {
		mark := ""
		if !c.Expected() {
			mark = " !!"
		} else {
			expected++
		}
		fmt.Fprintf(w, "%-12s %-8s %-14s %-13s %10d  %s%s\n",
			c.Workload, c.Partitioner, c.Class, c.Outcome, c.Injected,
			strings.Join(c.Kinds, ","), mark)
	}
	fmt.Fprintf(w, "%d/%d cells as expected\n", expected, len(cells))
}
