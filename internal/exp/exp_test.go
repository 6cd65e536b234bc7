package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func subset(t *testing.T, names ...string) []*workloads.Workload {
	t.Helper()
	var ws []*workloads.Workload
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

func TestBuildPipelineAllCombinations(t *testing.T) {
	// Static shape — instructions over both threads, queues after
	// allocation; naive then COCO — of a combination tier 1 pins nowhere
	// else: metrics_ks.golden.json holds ks, the benchmark's smoke run
	// checks only its first kernel against bench/testdata/expected.json.
	shapes := map[string][4]int64{"mpeg2enc/GREMIO": {63, 63, 5, 5}}
	ws := subset(t, "ks", "177.mesa", "mpeg2enc")
	for _, w := range ws {
		for _, part := range Partitioners() {
			p, err := NewEngine(EngineOptions{Jobs: 1}).Pipeline(context.Background(), w, part)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, part.Name(), err)
			}
			if p.Naive == nil || p.Coco == nil {
				t.Fatalf("%s/%s: missing programs", w.Name, part.Name())
			}
			got := [4]int64{progInstrs(p.Naive), progInstrs(p.Coco), int64(p.Naive.NumQueues), int64(p.Coco.NumQueues)}
			if want, ok := shapes[w.Name+"/"+part.Name()]; ok && got != want {
				t.Errorf("%s/%s: instrs and queues (naive, COCO) = %v, want %v", w.Name, part.Name(), got, want)
			}
			naive, err := p.MeasureComm(p.Naive)
			if err != nil {
				t.Fatalf("measure naive: %v", err)
			}
			opt, err := p.MeasureComm(p.Coco)
			if err != nil {
				t.Fatalf("measure coco: %v", err)
			}
			if opt.Comm() > naive.Comm() {
				t.Errorf("%s/%s: COCO increased communication", w.Name, part.Name())
			}
		}
	}
}

func TestCommExperimentRows(t *testing.T) {
	ws := subset(t, "ks")
	rows, err := NewEngine(EngineOptions{Jobs: 1}).CommExperiment(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // one per partitioner
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Workload != "ks" {
			t.Errorf("row workload %q", r.Workload)
		}
		if rel := r.RelativeComm(); rel < 0 || rel > 100.5 {
			t.Errorf("%s relative comm %.1f out of range", r.Partitioner, rel)
		}
		if pct := r.CommPct(); pct <= 0 || pct >= 100 {
			t.Errorf("%s comm%% %.1f implausible", r.Partitioner, pct)
		}
	}
}

func TestSpeedupExperimentRows(t *testing.T) {
	ws := subset(t, "435.gromacs")
	rows, err := NewEngine(EngineOptions{Jobs: 1}).SpeedupExperiment(context.Background(), sim.DefaultConfig(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.STCycles <= 0 || r.NaiveCycles <= 0 || r.CocoCycles <= 0 {
			t.Errorf("%s: non-positive cycles %+v", r.Partitioner, r)
		}
		if s := r.CocoSpeedup(); s < 0.3 || s > 3 {
			t.Errorf("%s: implausible speedup %.2f", r.Partitioner, s)
		}
	}
}

func TestRenderersProduceTables(t *testing.T) {
	ws := subset(t, "ks")
	rows, err := NewEngine(EngineOptions{Jobs: 1}).CommExperiment(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderFig1(&sb, rows, "GREMIO")
	if !strings.Contains(sb.String(), "ks") || !strings.Contains(sb.String(), "comm%") {
		t.Errorf("Fig1 output missing expected content:\n%s", sb.String())
	}
	sb.Reset()
	RenderFig7(&sb, rows)
	if !strings.Contains(sb.String(), "GREMIO") || !strings.Contains(sb.String(), "average") {
		t.Errorf("Fig7 output missing expected content:\n%s", sb.String())
	}
	sb.Reset()
	RenderFig6a(&sb, sim.DefaultConfig())
	if !strings.Contains(sb.String(), "1.5MB") {
		t.Errorf("Fig6a output missing L3 size:\n%s", sb.String())
	}
	sb.Reset()
	RenderFig6b(&sb, workloads.All())
	if !strings.Contains(sb.String(), "FindMaxGpAndSwap") {
		t.Errorf("Fig6b output missing function name:\n%s", sb.String())
	}
}

func TestMeans(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Errorf("GeoMean(1,4) = %v, want 2", g)
	}
	if a := ArithMean([]float64{1, 3}); a != 2 {
		t.Errorf("ArithMean(1,3) = %v, want 2", a)
	}
	if GeoMean(nil) != 0 || ArithMean(nil) != 0 {
		t.Error("means of empty series should be 0")
	}
}

func TestPartitionersOrder(t *testing.T) {
	ps := Partitioners()
	if len(ps) != 2 || ps[0].Name() != "GREMIO" || ps[1].Name() != "DSWP" {
		t.Errorf("Partitioners() = %v", []string{ps[0].Name(), ps[1].Name()})
	}
	var _ partition.Partitioner = ps[0]
}
