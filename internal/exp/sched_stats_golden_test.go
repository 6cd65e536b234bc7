package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/interp"
	"repro/internal/mtcg"
	"repro/internal/workloads"
)

const schedStatsGolden = "testdata/sched_stats.golden"

// schedStatsLines runs every kernel's naive and COCO program under both
// partitioners on its train input, at queue depths 1 and 32, under each
// scheduling policy and under a nil MTConfig.Sched, and prints one line
// per run with what depends on the interleaving: the policy's pick and
// blocked-turn counts, the queue high-water marks, and the issued steps.
func schedStatsLines(t *testing.T) []byte {
	t.Helper()
	ctx := context.Background()
	e := NewEngine(EngineOptions{Jobs: 1})
	policies := []struct {
		label string
		make  func() interp.Scheduler
	}{
		{"round-robin", interp.RoundRobin},
		{"random(7)", func() interp.Scheduler { return interp.Random(7) }},
		{"adversarial", interp.Adversarial},
		{"nil", func() interp.Scheduler { return nil }},
	}
	var out bytes.Buffer
	for _, w := range workloads.All() {
		for _, part := range Partitioners() {
			p, err := e.Pipeline(ctx, w, part)
			if err != nil {
				t.Fatal(err)
			}
			for _, prog := range []struct {
				label string
				p     *mtcg.Program
			}{{"naive", p.Naive}, {"coco", p.Coco}} {
				for _, qcap := range []int{1, 32} {
					for _, pol := range policies {
						in := w.Train()
						mt, err := interp.RunMT(interp.MTConfig{
							Threads: prog.p.Threads, NumQueues: prog.p.NumQueues, QueueCap: qcap,
							Sched: pol.make(), Assign: p.Assign, Args: in.Args, Mem: in.Mem,
							MaxSteps: p.measureBudget().MeasureSteps,
						})
						label := fmt.Sprintf("%s/%s/%s/cap=%d/%s", w.Name, part.Name(), prog.label, qcap, pol.label)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						fmt.Fprintf(&out, "%s: %+v hwm=%v steps=%d\n", label, mt.Sched, mt.QueueHWM, mt.Steps)
					}
				}
			}
		}
	}
	return out.Bytes()
}

// TestSchedStatsGolden pins the schedule-dependent results of the
// multi-threaded interpreter — SchedStats, QueueHWM and Steps — for every
// policy on 352 runs, so a change to RunMT's loop that is meant to keep its
// interleavings must pass this unchanged. Regenerate deliberately with:
//
//	go test ./internal/exp -run SchedStatsGolden -update
func TestSchedStatsGolden(t *testing.T) {
	got := schedStatsLines(t)
	if *updateGolden {
		if err := os.WriteFile(schedStatsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(schedStatsGolden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/exp -run SchedStatsGolden -update`)", err)
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("schedule changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
