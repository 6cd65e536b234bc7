package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/mtcg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// cocoLeavesNaive lists the kernel × partitioner pairs whose COCO program
// is the naive program instruction for instruction, IDs and queues
// included: the benchmarks of Figure 7 on which COCO removes nothing. A
// pipeline simulates such a pair once (measured). The inline corpus has 94
// such programs of 360 (12 of its first 64); that share is held by
// TestCocoNeverWorseThanNaiveCorpus, which builds every one of them anyway.
var cocoLeavesNaive = map[string]bool{
	"adpcmdec/DSWP":    true,
	"adpcmenc/DSWP":    true,
	"mpeg2enc/GREMIO":  true,
	"mpeg2enc/DSWP":    true,
	"177.mesa/DSWP":    true,
	"181.mcf/GREMIO":   true,
	"183.equake/DSWP":  true,
	"188.ammp/GREMIO":  true,
	"188.ammp/DSWP":    true,
	"435.gromacs/DSWP": true,
}

func buildPipeline(t *testing.T, w *workloads.Workload, pi int) *Pipeline {
	t.Helper()
	p, err := NewEngine(EngineOptions{Jobs: 1}).Pipeline(context.Background(), w, Partitioners()[pi])
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, Partitioners()[pi].Name(), err)
	}
	return p
}

func kernel(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCocoLeavesNaiveList fails when cocoLeavesNaive is wrong in either
// direction, and when a listed pair no longer names a kernel.
func TestCocoLeavesNaiveList(t *testing.T) {
	visited := 0
	for _, w := range workloads.All() {
		for pi, part := range Partitioners() {
			label := w.Name + "/" + part.Name()
			p := buildPipeline(t, w, pi)
			listed := cocoLeavesNaive[label]
			if listed {
				visited++
			}
			if same := sameProgram(p.Naive, p.Coco); same != listed {
				t.Errorf("%s: COCO's program is the naive program: %t; the list says %t", label, same, listed)
			}
		}
	}
	if visited != len(cocoLeavesNaive) {
		t.Errorf("%d of the %d listed pairs name a kernel and a partitioner", visited, len(cocoLeavesNaive))
	}
}

// TestMeasuredOncePerDistinctProgram: on every pair, simulating Coco after
// Naive returns what a pipeline that never simulated Naive gets by
// simulating Coco, and the simulator ran once per distinct program — twice
// where the programs differ, once where COCO left the naive program as it
// was. Plain communication measurements, of either program and in any
// order, start no executor run at all.
func TestMeasuredOncePerDistinctProgram(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = subset(t, "ks", "mpeg2enc")
	}
	for _, w := range ws {
		for pi, part := range Partitioners() {
			label := w.Name + "/" + part.Name()
			p, fresh := buildPipeline(t, w, pi), buildPipeline(t, w, pi)
			cfg := p.Machine(sim.DefaultConfig())

			if _, err := p.MeasureComm(p.Naive); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			comm, err := p.MeasureComm(p.Coco)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if _, err := p.MeasureCycles(cfg, p.Naive); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cycles, err := p.MeasureCycles(cfg, p.Coco)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			wantComm, err := fresh.MeasureComm(fresh.Coco)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantCycles, err := fresh.MeasureCycles(cfg, fresh.Coco)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if comm != wantComm || cycles != wantCycles {
				t.Errorf("%s: Coco after Naive measured %+v and %d cycles; a run of Coco alone %+v and %d",
					label, comm, cycles, wantComm, wantCycles)
			}
			want := int64(2)
			if cocoLeavesNaive[label] {
				want = 1
			}
			if got := p.plain.executed.Load(); got != want {
				t.Errorf("%s: %d executor runs for two measurements of each program, want %d simulations", label, got, want)
			}
			if got := fresh.plain.executed.Load(); got != 1 {
				t.Errorf("%s: %d executor runs on the pipeline that measured only Coco, want 1", label, got)
			}
		}
	}
}

// TestMeasuredReadsEitherWay: the record is filed under the program that
// ran, so Naive reads Coco's simulation as Coco reads Naive's; a program
// whose twin has not run is run each time it is simulated; and a
// hand-built literal — what bench/staged.go makes — behaves as an engine's
// pipeline does.
func TestMeasuredReadsEitherWay(t *testing.T) {
	built := buildPipeline(t, kernel(t, "mpeg2enc"), 0)
	p := &Pipeline{W: built.W, Part: built.Part, Assign: built.Assign, Graph: built.Graph,
		Profile: built.Profile, Naive: built.Naive, Coco: built.Coco, QueueCap: built.QueueCap}
	cfg := p.Machine(sim.DefaultConfig())
	for i, call := range []struct {
		prog *mtcg.Program
		runs int64
	}{{p.Coco, 1}, {p.Naive, 1}, {p.Naive, 1}, {p.Coco, 2}, {p.Coco, 3}} {
		if _, err := p.MeasureCycles(cfg, call.prog); err != nil {
			t.Fatal(err)
		}
		if got := p.plain.executed.Load(); got != call.runs {
			label, _ := p.progLabel(call.prog)
			t.Fatalf("after call %d (%s): %d simulations, want %d", i+1, label, got, call.runs)
		}
	}
}

// TestPlainCommRunsNoProgram: a plain communication measurement executes
// neither generated program — on an engine's pipeline or on a literal's —
// and equals what the counting interpreter reports when it does run the
// program. One engine makes one reference run per workload, shared by both
// partitioners' pipelines and the last resort, and counts none of them as
// a train profile.
func TestPlainCommRunsNoProgram(t *testing.T) {
	ws := subset(t, "ks", "mpeg2enc")
	e := NewEngine(EngineOptions{Jobs: 1})
	ctx := context.Background()
	for _, w := range ws {
		for _, part := range Partitioners() {
			row, err := e.CommCell(ctx, w, part)
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.Pipeline(ctx, w, part)
			if err != nil {
				t.Fatal(err)
			}
			lit := &Pipeline{W: w, Part: part, Assign: p.Assign, Graph: p.Graph,
				Profile: p.Profile, Naive: p.Naive, Coco: p.Coco, QueueCap: p.QueueCap}
			for _, m := range []struct {
				prog *mtcg.Program
				got  interp.CommStats
			}{{p.Naive, row.Naive}, {p.Coco, row.Coco}} {
				onLit, err := lit.MeasureComm(m.prog)
				if err != nil {
					t.Fatal(err)
				}
				in := w.Ref()
				mt, err := interp.RunMT(interp.MTConfig{Threads: m.prog.Threads, NumQueues: m.prog.NumQueues,
					QueueCap: p.QueueCap, Assign: p.Assign, Args: in.Args, Mem: in.Mem,
					MaxSteps: p.measureBudget().MeasureSteps})
				if err != nil {
					t.Fatal(err)
				}
				if m.got != mt.Stats || onLit != mt.Stats {
					label, _ := p.progLabel(m.prog)
					t.Errorf("%s/%s/%s: counted %+v on the engine, %+v on a literal; the run executed %+v",
						w.Name, part.Name(), label, m.got, onLit, mt.Stats)
				}
			}
			if got := p.plain.executed.Load() + lit.plain.executed.Load(); got != 0 {
				t.Errorf("%s/%s: %d executor runs for plain communication measurements, want 0", w.Name, part.Name(), got)
			}
			if p.eng != e {
				t.Errorf("%s/%s: the pipeline does not share its engine's reference run", w.Name, part.Name())
			}
		}
		last, err := e.singleThreadedComm(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if ref := e.refs[w]; last.Compute != ref.val.Steps {
			t.Errorf("%s: the last resort counted %d steps, the reference run %d", w.Name, last.Compute, ref.val.Steps)
		}
	}
	if len(e.refs) != len(ws) {
		t.Errorf("%d reference runs for %d workloads under both partitioners", len(e.refs), len(ws))
	}
	if got, want := e.Stats().ReferenceRuns, int64(len(ws)); got != want {
		t.Errorf("ReferenceRuns = %d, want %d: one per workload under both partitioners and the last resort", got, want)
	}
	if got, want := e.Stats().ProfileRuns, int64(len(ws)); got != want {
		t.Errorf("ProfileRuns = %d, want %d: the reference run is not a train profile", got, want)
	}
}

// TestCountedStepLimit: a plain communication measurement fails with
// interp.ErrStepLimit exactly where running the program would, one step
// under its total, and succeeds at its total.
func TestCountedStepLimit(t *testing.T) {
	for _, name := range []string{"ks", "adpcmdec"} {
		p := buildPipeline(t, kernel(t, name), 0)
		st, err := p.MeasureComm(p.Coco)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			max  int64
			fail bool
		}{{st.Total() - 1, true}, {st.Total(), false}} {
			lim := buildPipeline(t, p.W, 0)
			lim.budget.MeasureSteps = tc.max
			_, counted := lim.MeasureComm(lim.Coco)
			in := p.W.Ref()
			_, ran := interp.RunMT(interp.MTConfig{Threads: p.Coco.Threads, NumQueues: p.Coco.NumQueues,
				QueueCap: p.QueueCap, Assign: p.Assign, Args: in.Args, Mem: in.Mem, MaxSteps: tc.max})
			for what, err := range map[string]error{"counted": counted, "run": ran} {
				if errors.Is(err, interp.ErrStepLimit) != tc.fail || (!tc.fail && err != nil) {
					t.Errorf("%s, budget %d of %d steps: %s err = %v, want step limit %t",
						name, tc.max, st.Total(), what, err, tc.fail)
				}
			}
		}
	}
}

// TestObservedAndInjectedRunsAreNotShared: a pipeline with an observer
// runs both programs in full — both leave their metrics — and a mutant,
// which records no Origins, is run, never counted, whatever becomes of it,
// and has no twin to share a result with.
func TestObservedAndInjectedRunsAreNotShared(t *testing.T) {
	w := kernel(t, "mpeg2enc")
	o := &Obs{Metrics: obs.NewRegistry()}
	e := NewEngine(EngineOptions{Jobs: 1, Obs: o})
	ctx := context.Background()
	if _, err := e.CommCell(ctx, w, Partitioners()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SpeedupCell(ctx, sim.DefaultConfig(), w, Partitioners()[0]); err != nil {
		t.Fatal(err)
	}
	for _, scope := range []string{"naive.interp", "coco.interp", "naive.sim", "coco.sim"} {
		prefix, found := "exp.mpeg2enc.GREMIO."+scope+".", false
		for _, m := range o.Metrics.Snapshot() {
			found = found || strings.HasPrefix(m.Name, prefix)
		}
		if !found {
			t.Errorf("the observed run published nothing under %s", prefix)
		}
	}
	p, err := e.Pipeline(ctx, w, Partitioners()[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := p.plain.executed.Load(); got != 4 {
		t.Errorf("%d executor runs on the observed pipeline, want 4", got)
	}

	p = buildPipeline(t, w, 0)
	ref, err := p.reference(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Machine(sim.DefaultConfig())
	for _, prog := range []*mtcg.Program{p.Naive, p.Coco} {
		mut, _, ok, err := fault.Mutate(prog, ref.Profile, fault.Spec{Class: fault.DropProduce, Seed: 3})
		if !ok || err != nil {
			t.Fatalf("no drop mutant: ok=%v err=%v", ok, err)
		}
		p.MeasureComm(mut)
		p.MeasureCycles(cfg, mut)
	}
	if got := p.plain.executed.Load(); got != 4 {
		t.Errorf("%d executor runs of mutants, want 4", got)
	}
	if len(p.plain.cycles) != 0 {
		t.Errorf("mutant runs left %d results on record", len(p.plain.cycles))
	}
}

// TestFailedRunRecordsNothing: a simulation out of budget leaves no result
// behind, so the twin's call runs.
func TestFailedRunRecordsNothing(t *testing.T) {
	p := buildPipeline(t, kernel(t, "mpeg2enc"), 0)
	cfg := p.Machine(sim.DefaultConfig())
	full := p.budget
	p.budget.SimCycles = 100
	if _, err := p.MeasureCycles(cfg, p.Naive); !errors.Is(err, sim.ErrCycleLimit) {
		t.Fatalf("100-cycle budget: err = %v, want sim.ErrCycleLimit", err)
	}
	p.budget = full
	if _, err := p.MeasureCycles(cfg, p.Coco); err != nil {
		t.Fatal(err)
	}
	if got := p.plain.executed.Load(); got != 2 {
		t.Errorf("%d simulations after a failed simulation and its twin's, want 2", got)
	}
	if _, err := p.MeasureCycles(cfg, p.Naive); err != nil {
		t.Fatal(err)
	}
	if got := p.plain.executed.Load(); got != 2 {
		t.Errorf("%d simulations, want 2: Naive reads the simulation of Coco that succeeded", got)
	}
}

// TestMachineIsPartOfTheRecord: a simulation on another machine is another
// entry — it runs, and returns that machine's cycles.
func TestMachineIsPartOfTheRecord(t *testing.T) {
	w := kernel(t, "mpeg2enc")
	p, fresh := buildPipeline(t, w, 1), buildPipeline(t, w, 1)
	paper := p.Machine(sim.DefaultConfig())
	slow := paper
	slow.MemLat *= 2
	if _, err := p.MeasureCycles(paper, p.Naive); err != nil {
		t.Fatal(err)
	}
	got, err := p.MeasureCycles(slow, p.Coco)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.MeasureCycles(slow, fresh.Coco)
	if err != nil {
		t.Fatal(err)
	}
	onPaper, err := p.MeasureCycles(paper, p.Coco)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == onPaper {
		t.Errorf("doubled memory latency: %d cycles, a fresh pipeline %d; the paper's machine %d", got, want, onPaper)
	}
	if runs := p.plain.executed.Load(); runs != 2 {
		t.Errorf("%d simulations for two machines, want 2", runs)
	}
}

// TestMeasuredConcurrently: two goroutines measure one pipeline, as a
// communication cell and a speedup cell of one engine do (run under -race).
func TestMeasuredConcurrently(t *testing.T) {
	p := buildPipeline(t, kernel(t, "mpeg2enc"), 0)
	cfg := p.Machine(sim.DefaultConfig())
	fresh := buildPipeline(t, p.W, 0)
	want, err := fresh.MeasureCycles(cfg, fresh.Coco)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, prog := range []*mtcg.Program{p.Naive, p.Coco} {
				if _, err := p.MeasureComm(prog); err != nil {
					t.Error(err)
				}
				if got, err := p.MeasureCycles(cfg, prog); err != nil || got != want {
					t.Errorf("%d cycles, err %v; want %d", got, err, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestReusedResultSaysSo: in a request's span tree the span of a
// simulation read from the twin's run names the twin, so a near-empty
// simulate-coco span explains itself; a span that ran carries no such
// mark, and neither does a communication measurement, which is counted.
func TestReusedResultSaysSo(t *testing.T) {
	for _, tc := range []struct {
		kernel, coco string
	}{{"mpeg2enc", " same_as=naive"}, {"ks", ""}} {
		e := NewEngine(EngineOptions{Jobs: 1})
		tree := obs.NewSpanTree(tc.kernel, nil)
		root := tree.Root("cell")
		w, part := kernel(t, tc.kernel), Partitioners()[0]
		if _, err := e.CommCellSpan(context.Background(), w, part, root); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SpeedupCellSpan(context.Background(), sim.DefaultConfig(), w, part, root); err != nil {
			t.Fatal(err)
		}
		root.Finish()
		var buf bytes.Buffer
		if err := tree.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []struct {
				Name  string
				Attrs map[string]any
			}
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range doc.Spans {
			if strings.HasPrefix(s.Name, "measure-") || strings.HasPrefix(s.Name, "simulate-") {
				line := s.Name
				if v, ok := s.Attrs["same_as"]; ok {
					line += fmt.Sprintf(" same_as=%v", v)
				}
				got = append(got, line)
			}
		}
		want := []string{"measure-naive", "measure-coco", "simulate-naive", "simulate-coco" + tc.coco}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: spans %q, want %q", tc.kernel, got, want)
		}
	}
}
