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

	"repro/internal/budget"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The degradation chain is fired here by what fails real requests: a
// client's budget too tight for the programs it asks for.
//   - ProfileSteps 1 fails the train profile every pipeline is built
//     from: every attempt fails at "pipeline" (FailCompile), and the chain
//     walks to single-threaded.
//   - MeasureSteps equal to the reference run's steps fails every counted
//     communication measurement (FailExecution): a partitioned program
//     executes those instructions plus its communication. The
//     single-threaded last resort is the reference run itself and fits.
//   - SimCycles equal to the single-threaded cycles fails the simulation
//     of a program slower than single-threaded: GREMIO's on 183.equake
//     (0.86x in figures.golden), not DSWP's (1.02x), so a GREMIO cell
//     falls back to DSWP.

// profileStarved fails every pipeline of every workload.
var profileStarved = budget.Budget{ProfileSteps: 1}

// measureStarved returns a budget that fails every communication
// measurement of a partitioned w.
func measureStarved(t *testing.T, w *workloads.Workload) budget.Budget {
	t.Helper()
	return budget.Budget{MeasureSteps: refSteps(t, w)}
}

// simStarved returns a budget that fails every simulation of w slower
// than single-threaded on the paper's machine.
func simStarved(t *testing.T, w *workloads.Workload) budget.Budget {
	t.Helper()
	return budget.Budget{SimCycles: stCycles(t, w)}
}

// refSteps is w's reference run's step count under the paper's budget.
func refSteps(t *testing.T, w *workloads.Workload) int64 {
	t.Helper()
	ref, err := NewEngine(EngineOptions{Jobs: 1}).Reference(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return ref.Steps
}

// stCycles is w's single-threaded cycle count on the paper's machine.
func stCycles(t *testing.T, w *workloads.Workload) int64 {
	t.Helper()
	c, err := SingleThreadedCycles(sim.DefaultConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDegradeCommExperiment: with every attempt failing and degradation
// on, the comm experiment completes — every cell falls back to the
// single-threaded result, the reference run's steps as computation — and
// the fallbacks are visible in the rows, the engine stats and the obs
// counters.
func TestDegradeCommExperiment(t *testing.T) {
	ws := subset(t, "ks", "adpcmdec")
	for _, tc := range []struct {
		name string
		b    budget.Budget
		ws   []*workloads.Workload
	}{
		{"profile-starved", profileStarved, ws},
		{"measure-starved", measureStarved(t, ws[0]), ws[:1]},
	} {
		reg := obs.NewRegistry()
		e := NewEngine(EngineOptions{Jobs: 2, Budget: tc.b, Degrade: true, Obs: &Obs{Metrics: reg}})
		rows, err := e.CommExperiment(context.Background(), tc.ws)
		if err != nil {
			t.Fatalf("%s: degradation chain did not rescue the experiment: %v", tc.name, err)
		}
		if len(rows) != 2*len(tc.ws) {
			t.Fatalf("%s: got %d rows, want %d", tc.name, len(rows), 2*len(tc.ws))
		}
		for _, r := range rows {
			want := interp.CommStats{Compute: refSteps(t, kernel(t, r.Workload))}
			if r.Fallback != FallbackSingle || r.Naive != want || r.Coco != want {
				t.Errorf("%s: %s/%s = %+v, want a %s row of %+v", tc.name, r.Workload, r.Partitioner, r, FallbackSingle, want)
			}
		}
		// Each cell fell back twice: requested → alternate → single.
		st := e.Stats()
		if st.Fallbacks != 2*int64(len(rows)) {
			t.Errorf("%s: Stats().Fallbacks = %d, want %d", tc.name, st.Fallbacks, 2*len(rows))
		}
		if got := reg.Counter("exp.fallbacks").Value(); got != st.Fallbacks {
			t.Errorf("%s: exp.fallbacks counter = %d, want %d", tc.name, got, st.Fallbacks)
		}
	}
}

// TestNoDegradeFailsFast: the same budgets without the degradation chain
// surface a typed StageError, classified by where the cell failed, instead
// of a silently substituted figure.
func TestNoDegradeFailsFast(t *testing.T) {
	ws := subset(t, "ks")
	for _, tc := range []struct {
		name  string
		b     budget.Budget
		class FailureClass
		stage string
	}{
		{"profile-starved", profileStarved, FailCompile, "pipeline"},
		{"measure-starved", measureStarved(t, ws[0]), FailExecution, "measure"},
	} {
		_, err := NewEngine(EngineOptions{Jobs: 1, Budget: tc.b}).CommExperiment(context.Background(), ws)
		var se *StageError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v is not a StageError", tc.name, err)
		}
		if se.Class != tc.class || se.Stage != tc.stage {
			t.Errorf("%s: failed as %s at %q, want %s at %q", tc.name, se.Class, se.Stage, tc.class, tc.stage)
		}
		if !errors.Is(err, interp.ErrStepLimit) {
			t.Errorf("%s: %v does not wrap interp.ErrStepLimit", tc.name, err)
		}
		if se.Workload != "ks" || se.Partitioner != "GREMIO" {
			t.Errorf("%s: StageError names %s/%s, want ks/GREMIO", tc.name, se.Workload, se.Partitioner)
		}
	}
}

// TestDegradeSpeedupExperiment: the cycle-level experiment degrades the
// same way. A starved profile pins both MT configurations to the
// single-threaded baseline; a cycle budget only DSWP's programs fit in
// moves 183.equake's GREMIO cell to DSWP's cycles and leaves its DSWP cell
// as it was.
func TestDegradeSpeedupExperiment(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := NewEngine(EngineOptions{Jobs: 2, Budget: profileStarved, Degrade: true})
	rows, err := e.SpeedupExperiment(context.Background(), cfg, subset(t, "ks"))
	if err != nil {
		t.Fatalf("degradation chain did not rescue the speedup experiment: %v", err)
	}
	for _, r := range rows {
		if r.STCycles <= 0 || r.Fallback != FallbackSingle || r.NaiveCycles != r.STCycles || r.CocoCycles != r.STCycles {
			t.Errorf("%s/%s: %+v, want MT cycles pinned to ST by a %s fallback", r.Workload, r.Partitioner, r, FallbackSingle)
		}
	}
	if got := e.Stats().Fallbacks; got != 4 {
		t.Errorf("profile-starved: %d fallbacks, want 4", got)
	}

	ws := subset(t, "183.equake")
	clean, err := NewEngine(EngineOptions{Jobs: 1}).SpeedupExperiment(context.Background(), cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	e = NewEngine(EngineOptions{Jobs: 2, Budget: simStarved(t, ws[0]), Degrade: true})
	rows, err = e.SpeedupExperiment(context.Background(), cfg, ws)
	if err != nil {
		t.Fatalf("degradation chain did not rescue the speedup experiment: %v", err)
	}
	gremio, dswp := clean[0], clean[1]
	if gremio.NaiveCycles <= gremio.STCycles || dswp.NaiveCycles > dswp.STCycles || dswp.CocoCycles > dswp.STCycles {
		t.Fatalf("183.equake no longer has GREMIO slower and DSWP faster than single-threaded: %+v", clean)
	}
	wantGremio := gremio
	wantGremio.NaiveCycles, wantGremio.CocoCycles, wantGremio.Fallback = dswp.NaiveCycles, dswp.CocoCycles, "DSWP"
	if rows[0] != wantGremio || rows[1] != dswp {
		t.Errorf("sim-starved rows:\n%+v\n%+v\nwant:\n%+v\n%+v", rows[0], rows[1], wantGremio, dswp)
	}
	if got := e.Stats().Fallbacks; got != 1 {
		t.Errorf("sim-starved: %d fallbacks, want 1", got)
	}
}

// TestRenderFallbackRows: a rescued cell's figure rows say what stood in
// for it, and only those rows.
func TestRenderFallbackRows(t *testing.T) {
	ws := subset(t, "183.equake")
	b := measureStarved(t, ws[0])
	b.SimCycles = simStarved(t, ws[0]).SimCycles
	var out bytes.Buffer
	e := NewEngine(EngineOptions{Jobs: 1, Budget: b, Degrade: true})
	if err := e.RenderFigures(context.Background(), &out, sim.DefaultConfig(), ws, "all", false, nil); err != nil {
		t.Fatal(err)
	}
	steps := refSteps(t, ws[0])
	row := fmt.Sprintf("%-14s %14d %14d %8.1f%%", "183.equake", steps, 0, 0.0)
	want := []string{
		row + "  [fallback: single-threaded]", // Figure 1 (GREMIO)
		row + "  [fallback: single-threaded]", // Figure 1 (DSWP)
		"183.equake     GREMIO           1.02x        1.02x      +0.0%  [fallback: DSWP]",
	}
	var got []string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "[fallback:") {
			got = append(got, l)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("annotated rows:\n%s\nwant:\n%s\nfigures:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"), out.String())
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
// clean run, while walking the whole degradation chain from a failed
// pipeline or a failed measurement, and on a partial fallback, so the comm
// and the speedup path cannot drift apart in what they trace.
func TestDegradeSpanShapes(t *testing.T) {
	ks, equake := subset(t, "ks")[0], subset(t, "183.equake")[0]
	part := Partitioners()[0]
	comm := func(w *workloads.Workload) func(*Engine, *obs.Span) (string, error) {
		return func(e *Engine, sp *obs.Span) (string, error) {
			row, err := e.CommCellSpan(context.Background(), w, part, sp)
			return row.Fallback, err
		}
	}
	speedup := func(w *workloads.Workload) func(*Engine, *obs.Span) (string, error) {
		return func(e *Engine, sp *obs.Span) (string, error) {
			row, err := e.SpeedupCellSpan(context.Background(), sim.DefaultConfig(), w, part, sp)
			return row.Fallback, err
		}
	}
	// failed is one failed attempt; stage is its failed measurement's span,
	// absent when the pipeline failed.
	failed := func(stage ...string) []string {
		out := append([]string{
			"1 attempt class,outcome,partitioner,stage",
			"2 pipeline ",
		}, stage...)
		return append(out, "1 degrade class,from,stage")
	}
	chain := func(stage ...string) []string {
		return append(append(failed(stage...), failed(stage...)...), "1 attempt outcome,partitioner")
	}
	commOK := []string{
		"1 attempt outcome,partitioner",
		"2 pipeline ",
		"2 measure-naive compute,produce",
		"2 measure-coco compute,produce",
	}
	speedupOK := []string{
		"1 attempt outcome,partitioner",
		"2 pipeline ",
		"2 simulate-naive cycles",
		"2 simulate-coco cycles",
	}
	cell, baseline := []string{"0 cell "}, []string{"0 cell ", "1 single-threaded-baseline cycles"}
	cat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		b        budget.Budget
		run      func(*Engine, *obs.Span) (string, error)
		fallback string
		want     []string
	}{
		{"comm", budget.Budget{}, comm(ks), "", cat(cell, commOK)},
		{"speedup", budget.Budget{}, speedup(ks), "", cat(baseline, speedupOK)},
		{"comm/profile-starved", profileStarved, comm(ks), FallbackSingle, cat(cell, chain())},
		{"speedup/profile-starved", profileStarved, speedup(ks), FallbackSingle, cat(baseline, chain())},
		{"comm/measure-starved", measureStarved(t, ks), comm(ks), FallbackSingle,
			cat(cell, chain("2 measure-naive compute,produce"))},
		{"speedup/sim-starved", simStarved(t, equake), speedup(equake), "DSWP",
			// DSWP's COCO program on 183.equake is its naive program: the
			// second simulation is read from the first.
			cat(baseline, failed("2 simulate-naive cycles"), speedupOK[:3], []string{"2 simulate-coco cycles,same_as"})},
	} {
		e := NewEngine(EngineOptions{Jobs: 1, Budget: tc.b, Degrade: true})
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
