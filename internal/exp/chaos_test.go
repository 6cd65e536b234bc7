package exp

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/budget"
	"repro/internal/fault"
)

// TestCoverageMatrixContract is the detector-coverage matrix of the issue:
// every (workload × partitioner × fault class) cell must meet its class's
// contract — destructive faults detected with a named oracle kind, benign
// faults tolerated, vacuous schedules reported as not-injected. No panics,
// no silently wrong live-outs.
func TestCoverageMatrixContract(t *testing.T) {
	e := NewEngine(EngineOptions{Jobs: 4})
	ws := subset(t, "ks", "adpcmdec")
	cells, err := e.CoverageMatrix(context.Background(), ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkInputsPristine(t, ws)
	wantCells := 2 * 2 * len(fault.Classes())
	if len(cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(cells), wantCells)
	}
	for _, c := range cells {
		id := c.Workload + "/" + c.Partitioner + "/" + string(c.Class)
		if !c.Expected() {
			t.Errorf("%s: outcome %q violates the class contract (injected=%d kinds=%v)",
				id, c.Outcome, c.Injected, c.Kinds)
		}
		switch c.Outcome {
		case ChaosDetected:
			if len(c.Kinds) == 0 {
				t.Errorf("%s: detected but no failure kinds named", id)
			}
			for _, k := range c.Kinds {
				if k == "" {
					t.Errorf("%s: empty failure kind", id)
				}
			}
			if c.Detail == "" {
				t.Errorf("%s: detected but no detail recorded", id)
			}
			if c.Injected == 0 {
				t.Errorf("%s: detected a fault that was never injected", id)
			}
			if c.Schedule == "" {
				t.Errorf("%s: no fault schedule recorded", id)
			}
		case ChaosTolerated:
			if c.Injected == 0 {
				t.Errorf("%s: tolerated with zero injections (should be not-injected)", id)
			}
		case ChaosNotInjected:
			if c.Injected != 0 {
				t.Errorf("%s: not-injected but Injected = %d", id, c.Injected)
			}
		default:
			t.Errorf("%s: unknown outcome %q", id, c.Outcome)
		}
	}
	if !ChaosOK(cells) {
		var buf bytes.Buffer
		RenderChaos(&buf, 1, cells)
		t.Fatalf("coverage matrix has unexpected cells:\n%s", buf.String())
	}
}

// TestCoverageMatrixDeterministic: same seed ⇒ byte-identical fault
// schedules and rendered report, regardless of worker count.
func TestCoverageMatrixDeterministic(t *testing.T) {
	ws := subset(t, "ks", "adpcmdec")
	render := func(jobs int) (string, []ChaosCell) {
		e := NewEngine(EngineOptions{Jobs: jobs})
		cells, err := e.CoverageMatrix(context.Background(), ws, 7)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		RenderChaos(&buf, 7, cells)
		return buf.String(), cells
	}
	r1, c1 := render(1)
	r4, c4 := render(4)
	if r1 != r4 {
		t.Errorf("renders differ between 1 and 4 workers:\n--- jobs=1\n%s\n--- jobs=4\n%s", r1, r4)
	}
	for i := range c1 {
		if c1[i].Schedule != c4[i].Schedule {
			t.Errorf("cell %d fault schedules differ:\n%s\nvs\n%s", i, c1[i].Schedule, c4[i].Schedule)
		}
	}
	rOther, _ := render(1)
	if rOther != r1 {
		t.Error("two identical runs rendered different reports")
	}
}

func TestChaosCellExpected(t *testing.T) {
	cases := []struct {
		cell ChaosCell
		want bool
	}{
		{ChaosCell{Class: fault.DropProduce, Outcome: ChaosDetected, Injected: 1}, true},
		{ChaosCell{Class: fault.DropProduce, Outcome: ChaosTolerated, Injected: 1}, false},
		{ChaosCell{Class: fault.StallThread, Outcome: ChaosTolerated, Injected: 1}, true},
		{ChaosCell{Class: fault.StallThread, Outcome: ChaosDetected, Injected: 1}, false},
		{ChaosCell{Class: fault.ShrinkQueue, Outcome: ChaosTolerated, Injected: 1}, true},
		{ChaosCell{Class: fault.SwapQueue, Outcome: ChaosNotInjected}, true},
		{ChaosCell{Class: fault.MisplacePlan, Outcome: ChaosDetected, Injected: 1}, true},
		{ChaosCell{Class: fault.MisplacePlan, Outcome: ChaosTolerated, Injected: 1}, false},
		// Failures with nothing injected are a miscompile, not a detection.
		{ChaosCell{Class: fault.DropProduce, Outcome: ChaosDetected}, false},
	}
	for _, tc := range cases {
		if got := tc.cell.Expected(); got != tc.want {
			t.Errorf("Expected(%s, %s, injected %d) = %v, want %v",
				tc.cell.Class, tc.cell.Outcome, tc.cell.Injected, got, tc.want)
		}
	}
	if ChaosOK([]ChaosCell{cases[0].cell, cases[1].cell}) {
		t.Error("ChaosOK accepted a violated contract")
	}
}

// TestChaosContextCancel: cancellation must abort the matrix, never be
// absorbed by the degradation chain, even where every attempt would fail
// and fall back.
func TestChaosContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(EngineOptions{Jobs: 2, Degrade: true, Budget: budget.Budget{ProfileSteps: 1}})
	if _, err := e.CommExperiment(ctx, subset(t, "ks", "adpcmdec")); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled comm experiment returned %v, want context.Canceled", err)
	}
	if _, err := e.CoverageMatrix(ctx, subset(t, "ks", "adpcmdec"), 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled coverage matrix returned %v, want context.Canceled", err)
	}
	// A cell run under the cancelled context fails its first attempt on
	// the cancellation itself, and the chain stops there: no fallback.
	e = NewEngine(EngineOptions{Jobs: 1, Degrade: true})
	if _, err := e.CommCell(ctx, subset(t, "ks")[0], Partitioners()[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled cell returned %v, want context.Canceled", err)
	}
	if n := e.Stats().Fallbacks; n != 0 {
		t.Errorf("cancelled cell took %d fallbacks, want 0", n)
	}
}
