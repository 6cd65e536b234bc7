package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/interp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// CommRow is one bar of Figures 1 and 7: the dynamic instruction mix of a
// workload under one partitioner, with and without COCO.
type CommRow struct {
	Workload    string
	Partitioner string
	Naive       interp.CommStats
	Coco        interp.CommStats
	// Fallback records what the degradation chain substituted when the
	// requested configuration failed: the alternate partitioner's name,
	// FallbackSingle for single-threaded execution, or "" when the cell
	// ran as requested.
	Fallback string
}

// CommPct returns the percentage of communication instructions under naive
// MTCG (Figure 1's bar height).
func (r CommRow) CommPct() float64 {
	t := r.Naive.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(r.Naive.Comm()) / float64(t)
}

// RelativeComm returns COCO's dynamic communication relative to naive MTCG
// in percent (Figure 7's bar height; lower is better, 100 = no change).
func (r CommRow) RelativeComm() float64 {
	if r.Naive.Comm() == 0 {
		return 100
	}
	return 100 * float64(r.Coco.Comm()) / float64(r.Naive.Comm())
}

// MemSyncRemovedPct returns the percentage of dynamic memory
// synchronizations removed by COCO, or -1 when the naive program has none.
func (r CommRow) MemSyncRemovedPct() float64 {
	n := r.Naive.MemSync()
	if n == 0 {
		return -1
	}
	return 100 * float64(n-r.Coco.MemSync()) / float64(n)
}

// SpeedupRow is one group of Figure 8: cycle counts for a workload.
type SpeedupRow struct {
	Workload    string
	Partitioner string
	STCycles    int64
	NaiveCycles int64
	CocoCycles  int64
	// Fallback records what the degradation chain substituted (see
	// CommRow.Fallback); "" when the cell ran as requested.
	Fallback string
	// Note carries the profiler's one-line explanation of the naive→COCO
	// cycle delta when Engine.AnnotateSpeedups has run; "" otherwise.
	Note string
}

// NaiveSpeedup returns the MTCG-only speedup over single-threaded.
func (r SpeedupRow) NaiveSpeedup() float64 {
	return float64(r.STCycles) / float64(r.NaiveCycles)
}

// CocoSpeedup returns the MTCG+COCO speedup over single-threaded.
func (r SpeedupRow) CocoSpeedup() float64 {
	return float64(r.STCycles) / float64(r.CocoCycles)
}

// fallbackNote annotates a figure row that the degradation chain rescued;
// rows that ran as requested render exactly as before.
func fallbackNote(fb string) string {
	if fb == "" {
		return ""
	}
	return "  [fallback: " + fb + "]"
}

// explainNote annotates a figure row with the profiler's delta
// decomposition when -explain has run; unannotated rows render as before.
func explainNote(n string) string {
	if n == "" {
		return ""
	}
	return "  [" + n + "]"
}

// GeoMean returns the geometric mean of a positive series.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ArithMean returns the arithmetic mean.
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RenderFigures writes cmd/experiments' stdout: the figures fig selects
// over ws ("all" is 6(a), 6(b), 1, 7 and 8; "6a", "6b", "1", "7" or "8" one
// of them), as testdata/figures.golden holds them for "all". explain
// annotates Figure 8 (AnnotateSpeedups). timed, if not nil, is told the
// wall time of each phase that runs programs; the output never holds it.
func (e *Engine) RenderFigures(ctx context.Context, w io.Writer, cfg sim.Config, ws []*workloads.Workload,
	fig string, explain bool, timed func(phase string, d time.Duration)) error {
	want := func(f string) bool { return fig == "all" || fig == f }
	done := func(phase string, start time.Time) {
		if timed != nil {
			timed(phase, time.Since(start))
		}
	}
	if want("6a") {
		RenderFig6a(w, cfg)
		fmt.Fprintln(w)
	}
	if want("6b") {
		RenderFig6b(w, ws)
		fmt.Fprintln(w)
	}
	var commRows []CommRow
	if want("1") || want("7") {
		start := time.Now()
		var err error
		if commRows, err = e.CommExperiment(ctx, ws); err != nil {
			return err
		}
		done("1+7 (measure)", start)
	}
	if want("1") {
		RenderFig1(w, commRows, "GREMIO")
		fmt.Fprintln(w)
		RenderFig1(w, commRows, "DSWP")
		fmt.Fprintln(w)
	}
	if want("7") {
		RenderFig7(w, commRows)
		fmt.Fprintln(w)
	}
	if !want("8") {
		return nil
	}
	start := time.Now()
	rows, err := e.SpeedupExperiment(ctx, cfg, ws)
	if err != nil {
		return err
	}
	done("8 (simulate)", start)
	if explain {
		start := time.Now()
		if err := e.AnnotateSpeedups(ctx, cfg, ws, rows); err != nil {
			return err
		}
		done("8 (explain)", start)
	}
	RenderFig8(w, rows)
	return nil
}

// RenderFig1 writes the Figure 1 breakdown (percent communication vs
// computation under plain MTCG) for one partitioner.
func RenderFig1(w io.Writer, rows []CommRow, partitioner string) {
	fmt.Fprintf(w, "Figure 1 (%s): breakdown of dynamic instructions under plain MTCG\n", partitioner)
	fmt.Fprintf(w, "%-14s %14s %14s %9s\n", "benchmark", "computation", "communication", "comm%")
	var pcts []float64
	for _, r := range rows {
		if r.Partitioner != partitioner {
			continue
		}
		comp := r.Naive.Total() - r.Naive.Comm()
		fmt.Fprintf(w, "%-14s %14d %14d %8.1f%%%s\n",
			r.Workload, comp, r.Naive.Comm(), r.CommPct(), fallbackNote(r.Fallback))
		pcts = append(pcts, r.CommPct())
	}
	fmt.Fprintf(w, "%-14s %30s %8.1f%%\n", "average", "", ArithMean(pcts))
}

// RenderFig7 writes Figure 7: COCO's dynamic communication relative to
// MTCG's, plus the memory-synchronization column the text discusses.
func RenderFig7(w io.Writer, rows []CommRow) {
	fmt.Fprintln(w, "Figure 7: relative dynamic communication/synchronization after COCO (% of MTCG; lower is better)")
	fmt.Fprintf(w, "%-14s %10s %10s %18s\n", "benchmark", "GREMIO", "DSWP", "mem syncs removed")
	names := orderedNames(rows)
	byKey := map[string]CommRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Partitioner] = r
	}
	var gms, dms []float64
	for _, n := range names {
		g := byKey[n+"/GREMIO"]
		d := byKey[n+"/DSWP"]
		mem := "-"
		if pct := g.MemSyncRemovedPct(); pct >= 0 {
			mem = fmt.Sprintf("%.1f%% (GREMIO)", pct)
		}
		fmt.Fprintf(w, "%-14s %9.1f%% %9.1f%% %18s\n", n, g.RelativeComm(), d.RelativeComm(), mem)
		gms = append(gms, g.RelativeComm())
		dms = append(dms, d.RelativeComm())
	}
	fmt.Fprintf(w, "%-14s %9.1f%% %9.1f%%   (paper: 65.6%% / 76.2%%)\n",
		"average", ArithMean(gms), ArithMean(dms))
}

// RenderFig8 writes Figure 8: speedups over single-threaded execution with
// and without COCO.
func RenderFig8(w io.Writer, rows []SpeedupRow) {
	fmt.Fprintln(w, "Figure 8: speedup over single-threaded execution")
	fmt.Fprintf(w, "%-14s %-9s %12s %12s %10s\n", "benchmark", "scheduler", "MTCG", "MTCG+COCO", "COCO gain")
	perPart := map[string][]float64{}
	gains := map[string][]float64{}
	for _, r := range rows {
		gain := 100 * (r.CocoSpeedup()/r.NaiveSpeedup() - 1)
		fmt.Fprintf(w, "%-14s %-9s %11.2fx %11.2fx %+9.1f%%%s%s\n",
			r.Workload, r.Partitioner, r.NaiveSpeedup(), r.CocoSpeedup(), gain,
			fallbackNote(r.Fallback), explainNote(r.Note))
		perPart[r.Partitioner] = append(perPart[r.Partitioner], r.CocoSpeedup())
		gains[r.Partitioner] = append(gains[r.Partitioner], gain)
	}
	for _, part := range []string{"GREMIO", "DSWP"} {
		if len(perPart[part]) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %-9s geomean speedup %.2fx, mean COCO gain %+.1f%%\n",
			"average", part, GeoMean(perPart[part]), ArithMean(gains[part]))
	}
	fmt.Fprintln(w, "(paper: COCO improves GREMIO by 15.6% and DSWP by 2.7% on average; max +47.6% on ks)")
}

// RenderFig6a writes the machine configuration table.
func RenderFig6a(w io.Writer, cfg sim.Config) {
	fmt.Fprintln(w, "Figure 6(a): machine details")
	fmt.Fprintf(w, "  Core:        %d issue, %d ALU, %d memory, %d FP, %d branch\n",
		cfg.IssueWidth, cfg.ALUPorts, cfg.MemPorts, cfg.FPPorts, cfg.BranchPorts)
	fmt.Fprintf(w, "  L1D Cache:   %d cycle, %dKB, %d-way, %dB lines\n",
		cfg.L1Lat, cfg.L1Sets*cfg.L1Ways*cfg.L1Line*8/1024, cfg.L1Ways, cfg.L1Line*8)
	fmt.Fprintf(w, "  L2 Cache:    %d cycles, %dKB, %d-way, %dB lines\n",
		cfg.L2Lat, cfg.L2Sets*cfg.L2Ways*cfg.L2Line*8/1024, cfg.L2Ways, cfg.L2Line*8)
	fmt.Fprintf(w, "  Shared L3:   %d cycles, %.1fMB, %d-way, %dB lines\n",
		cfg.L3Lat, float64(cfg.L3Sets*cfg.L3Ways*cfg.L3Line*8)/(1024*1024), cfg.L3Ways, cfg.L3Line*8)
	fmt.Fprintf(w, "  Main memory: %d cycles\n", cfg.MemLat)
	fmt.Fprintf(w, "  Coherence:   snoop-based, write-invalidate\n")
	fmt.Fprintf(w, "  Synch array: %d queues x %d entries, %d-cycle access, %d shared ports\n",
		cfg.NumQueues, cfg.QueueCap, cfg.SALatency, cfg.SAPorts)
}

// RenderFig6b writes the benchmark table.
func RenderFig6b(w io.Writer, ws []*workloads.Workload) {
	fmt.Fprintln(w, "Figure 6(b): selected benchmark functions")
	fmt.Fprintf(w, "%-14s %-28s %-18s %7s\n", "benchmark", "function", "suite", "exec.%")
	for _, wl := range ws {
		fmt.Fprintf(w, "%-14s %-28s %-18s %6d%%\n", wl.Name, wl.Function, wl.Suite, wl.ExecPct)
	}
}

func orderedNames(rows []CommRow) []string {
	pos := map[string]int{}
	for i, name := range workloads.Names() {
		pos[name] = i
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range rows {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Slice(names, func(i, j int) bool { return pos[names[i]] < pos[names[j]] })
	return names
}
