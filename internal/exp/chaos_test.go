package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func chaosWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"ks", "adpcmdec"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestCoverageMatrixContract is the detector-coverage matrix of the issue:
// every (workload × partitioner × fault class) cell must meet its class's
// contract — destructive faults detected with a named oracle kind, benign
// faults tolerated, vacuous schedules reported as not-injected. No panics,
// no silently wrong live-outs.
func TestCoverageMatrixContract(t *testing.T) {
	e := NewEngine(EngineOptions{Jobs: 4})
	cells, err := e.CoverageMatrix(context.Background(), chaosWorkloads(t), 1)
	if err != nil {
		t.Fatal(err)
	}
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
	if got := e.Stats().FaultsInjected; got == 0 {
		t.Error("engine recorded zero injected faults across the matrix")
	}
}

// TestCoverageMatrixDeterministic: same seed ⇒ byte-identical fault
// schedules and rendered report, regardless of worker count.
func TestCoverageMatrixDeterministic(t *testing.T) {
	ws := chaosWorkloads(t)
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

// TestDegradeCommExperiment: with destructive chaos armed and degradation
// on, the comm experiment must complete — every cell falls back to the
// single-threaded result — and the fallbacks are visible in the engine
// stats, the rows, and the obs counters.
func TestDegradeCommExperiment(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(EngineOptions{
		Jobs:    2,
		Chaos:   &fault.Spec{Class: fault.DropProduce, Seed: 1},
		Degrade: true,
		Obs:     &Obs{Metrics: reg},
	})
	ws := chaosWorkloads(t)
	rows, err := e.CommExperiment(context.Background(), ws)
	if err != nil {
		t.Fatalf("degradation chain did not rescue the experiment: %v", err)
	}
	if len(rows) != 2*len(ws) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(ws))
	}
	for _, r := range rows {
		if r.Fallback == "" {
			t.Errorf("%s/%s: drop-produce chaos should force a fallback", r.Workload, r.Partitioner)
			continue
		}
		if r.Fallback == FallbackSingle {
			if r.Naive.Comm() != 0 || r.Naive != r.Coco {
				t.Errorf("%s/%s: single-threaded fallback row has comm stats: %+v",
					r.Workload, r.Partitioner, r.Naive)
			}
		}
		if r.Naive.Total() == 0 {
			t.Errorf("%s/%s: fallback row has no executed instructions", r.Workload, r.Partitioner)
		}
	}
	st := e.Stats()
	if st.Fallbacks == 0 {
		t.Error("Stats().Fallbacks is zero after forced degradation")
	}
	if st.FaultsInjected == 0 {
		t.Error("Stats().FaultsInjected is zero with chaos armed")
	}
	if got := reg.Counter("exp.fallbacks").Value(); got != st.Fallbacks {
		t.Errorf("exp.fallbacks counter = %d, want %d", got, st.Fallbacks)
	}
	if got := reg.Counter("fault.injected").Value(); got != st.FaultsInjected {
		t.Errorf("fault.injected counter = %d, want %d", got, st.FaultsInjected)
	}
}

// TestNoDegradeFailsFast: the same chaos without the degradation chain
// surfaces a typed StageError instead of a silently wrong figure.
func TestNoDegradeFailsFast(t *testing.T) {
	e := NewEngine(EngineOptions{
		Jobs:  1,
		Chaos: &fault.Spec{Class: fault.DropProduce, Seed: 1},
	})
	ws := chaosWorkloads(t)[:1]
	_, err := e.CommExperiment(context.Background(), ws)
	if err == nil {
		t.Fatal("chaos without degradation should fail the experiment")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a StageError", err)
	}
	if se.Class != FailExecution {
		t.Errorf("failure class = %s, want %s", se.Class, FailExecution)
	}
	if se.Workload == "" || se.Partitioner == "" {
		t.Errorf("StageError missing context: %+v", se)
	}
}

// TestDegradeSpeedupExperiment: the cycle-level experiment degrades the
// same way — MT simulation under destructive chaos falls back until the
// single-threaded baseline stands in for both MT configurations.
func TestDegradeSpeedupExperiment(t *testing.T) {
	e := NewEngine(EngineOptions{
		Jobs:    2,
		Chaos:   &fault.Spec{Class: fault.DropProduce, Seed: 1},
		Degrade: true,
	})
	ws := chaosWorkloads(t)[:1]
	rows, err := e.SpeedupExperiment(context.Background(), sim.DefaultConfig(), ws)
	if err != nil {
		t.Fatalf("degradation chain did not rescue the speedup experiment: %v", err)
	}
	for _, r := range rows {
		if r.STCycles <= 0 {
			t.Errorf("%s/%s: missing ST baseline", r.Workload, r.Partitioner)
		}
		if r.Fallback == FallbackSingle {
			if r.NaiveCycles != r.STCycles || r.CocoCycles != r.STCycles {
				t.Errorf("%s/%s: single-threaded fallback should pin MT cycles to ST: %+v",
					r.Workload, r.Partitioner, r)
			}
		}
		if r.NaiveCycles <= 0 || r.CocoCycles <= 0 {
			t.Errorf("%s/%s: non-positive cycles: %+v", r.Workload, r.Partitioner, r)
		}
	}
	if e.Stats().Fallbacks == 0 {
		t.Error("speedup experiment under chaos took no fallbacks")
	}
}

// TestChaosContextCancel: cancellation must abort the matrix, never be
// absorbed by the degradation chain.
func TestChaosContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(EngineOptions{Jobs: 2, Degrade: true, Chaos: &fault.Spec{Class: fault.DropProduce, Seed: 1}})
	if _, err := e.CommExperiment(ctx, chaosWorkloads(t)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled comm experiment returned %v, want context.Canceled", err)
	}
	if _, err := e.CoverageMatrix(ctx, chaosWorkloads(t), 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled coverage matrix returned %v, want context.Canceled", err)
	}
}

// spanShape renders a span tree as one "depth name key,key" line per span,
// in creation order: names, nesting and attribute keys, no values or times.
func spanShape(t *testing.T, tree *obs.SpanTree) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			ID, Parent int
			Name       string
			Attrs      map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	depth := map[int]int{}
	var out []string
	for _, s := range doc.Spans {
		depth[s.ID] = depth[s.Parent] + 1
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, fmt.Sprintf("%d %s %s", depth[s.ID]-1, s.Name, strings.Join(keys, ",")))
	}
	return out
}

// TestDegradeSpanShapes pins the span tree both cell kinds record, on a
// clean run and while walking the whole degradation chain, so the comm and
// the speedup path cannot drift apart in what they trace.
func TestDegradeSpanShapes(t *testing.T) {
	w := chaosWorkloads(t)[0]
	part := Partitioners()[0]
	comm := func(e *Engine, sp *obs.Span) (string, error) {
		row, err := e.CommCellSpan(context.Background(), w, part, sp)
		return row.Fallback, err
	}
	speedup := func(e *Engine, sp *obs.Span) (string, error) {
		row, err := e.SpeedupCellSpan(context.Background(), sim.DefaultConfig(), w, part, sp)
		return row.Fallback, err
	}
	failed := func(stage string) []string {
		return []string{
			"1 attempt class,outcome,partitioner,stage",
			"2 pipeline ",
			stage,
			"1 degrade class,from,stage",
		}
	}
	chain := func(stage string) []string {
		return append(append(failed(stage), failed(stage)...), "1 attempt outcome,partitioner")
	}
	for _, tc := range []struct {
		name     string
		chaos    *fault.Spec
		run      func(*Engine, *obs.Span) (string, error)
		fallback string
		want     []string
	}{
		{"comm", nil, comm, "", []string{
			"0 cell ",
			"1 attempt outcome,partitioner",
			"2 pipeline ",
			"2 measure-naive compute,produce",
			"2 measure-coco compute,produce",
		}},
		{"speedup", nil, speedup, "", []string{
			"0 cell ",
			"1 single-threaded-baseline cycles",
			"1 attempt outcome,partitioner",
			"2 pipeline ",
			"2 simulate-naive cycles",
			"2 simulate-coco cycles",
		}},
		{"comm/drop-produce", &fault.Spec{Class: fault.DropProduce, Seed: 1}, comm, FallbackSingle,
			append([]string{"0 cell "}, chain("2 measure-naive compute,produce")...)},
		{"speedup/drop-produce", &fault.Spec{Class: fault.DropProduce, Seed: 1}, speedup, FallbackSingle,
			append([]string{"0 cell ", "1 single-threaded-baseline cycles"}, chain("2 simulate-naive cycles")...)},
	} {
		e := NewEngine(EngineOptions{Jobs: 1, Chaos: tc.chaos, Degrade: true})
		tree := obs.NewSpanTree(tc.name, nil)
		root := tree.Root("cell")
		fb, err := tc.run(e, root)
		root.Finish()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fb != tc.fallback {
			t.Errorf("%s: fallback %q, want %q", tc.name, fb, tc.fallback)
		}
		got := strings.Join(spanShape(t, tree), "\n")
		if want := strings.Join(tc.want, "\n"); got != want {
			t.Errorf("%s span shape:\n%s\nwant:\n%s", tc.name, got, want)
		}
	}
}
