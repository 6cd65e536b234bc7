package exp

import (
	"context"
	"testing"

	"repro/internal/workloads"
)

// TestOracleExperimentCleanOnWorkloads is the correctness gate behind the
// perf experiments: every workload × partitioner cell, under both
// communication plans, the full scheduling-policy matrix, and both queue
// depths, must agree with the single-threaded golden run and the simulator.
func TestOracleExperimentCleanOnWorkloads(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = subset(t, "ks", "adpcmdec", "181.mcf")
	}
	e := NewEngine(EngineOptions{})
	rows, err := e.OracleExperiment(context.Background(), ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rows), len(ws)*len(Partitioners()); got != want {
		t.Fatalf("got %d rows, want %d", got, want)
	}
	for _, r := range rows {
		if r.Programs != 2 {
			t.Errorf("%s/%s: checked %d programs, want 2 (naive and COCO)",
				r.Workload, r.Partitioner, r.Programs)
		}
		if r.Runs == 0 {
			t.Errorf("%s/%s: no executor runs", r.Workload, r.Partitioner)
		}
		for _, f := range r.Failures {
			t.Errorf("%s/%s: %v", r.Workload, r.Partitioner, f)
		}
	}
	checkInputsPristine(t, ws)
}
