package exp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pdg"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestEngineDeterministicAcrossJobs runs the full figure suite serially
// and with a 4-worker pool and asserts identical CommRow/SpeedupRow output
// — the parallel engine must emit byte-identical figure rows to the serial
// path.
func TestEngineDeterministicAcrossJobs(t *testing.T) {
	ws := workloads.All()
	cfg := sim.DefaultConfig()
	ctx := context.Background()

	serial := NewEngine(EngineOptions{Jobs: 1})
	commSerial, err := serial.CommExperiment(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	speedSerial, err := serial.SpeedupExperiment(ctx, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}

	par := NewEngine(EngineOptions{Jobs: 4})
	commPar, err := par.CommExperiment(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	speedPar, err := par.SpeedupExperiment(ctx, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(commSerial, commPar) {
		t.Errorf("CommRows differ between -j 1 and -j 4:\nserial: %+v\nparallel: %+v", commSerial, commPar)
	}
	if !reflect.DeepEqual(speedSerial, speedPar) {
		t.Errorf("SpeedupRows differ between -j 1 and -j 4:\nserial: %+v\nparallel: %+v", speedSerial, speedPar)
	}

	// Rendered figures must be byte-identical too.
	var a, b strings.Builder
	RenderFig1(&a, commSerial, "GREMIO")
	RenderFig7(&a, commSerial)
	RenderFig8(&a, speedSerial)
	RenderFig1(&b, commPar, "GREMIO")
	RenderFig7(&b, commPar)
	RenderFig8(&b, speedPar)
	if a.String() != b.String() {
		t.Errorf("rendered figures differ between -j 1 and -j 4:\n--- serial ---\n%s\n--- parallel ---\n%s", a.String(), b.String())
	}
}

// TestEngineComputesArtifactsOnce asserts the memoization contract: over a
// full experiment run (both figures, both partitioners) the train-input
// profile and the PDG are each computed exactly once per workload — the
// serial harness recomputed them once per (figure, partitioner), i.e. 4×.
func TestEngineComputesArtifactsOnce(t *testing.T) {
	ws := subset(t, "ks", "adpcmdec", "181.mcf")
	cfg := sim.DefaultConfig()
	ctx := context.Background()

	e := NewEngine(EngineOptions{Jobs: 4})
	if _, err := e.CommExperiment(ctx, ws); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SpeedupExperiment(ctx, cfg, ws); err != nil {
		t.Fatal(err)
	}

	stats := e.Stats()
	if got, want := stats.ProfileRuns, int64(len(ws)); got != want {
		t.Errorf("profile runs = %d, want exactly %d (one per workload)", got, want)
	}
	if got, want := stats.PDGBuilds, int64(len(ws)); got != want {
		t.Errorf("PDG builds = %d, want exactly %d (one per workload)", got, want)
	}
}

// TestEnginePipelineSharedAcrossExperiments checks the pipeline cache: the
// comm and speedup experiments must reuse the same *Pipeline value for a
// given (workload, partitioner) pair.
func TestEnginePipelineSharedAcrossExperiments(t *testing.T) {
	ws := subset(t, "ks")
	ctx := context.Background()
	e := NewEngine(EngineOptions{Jobs: 2})
	p1, err := e.Pipeline(ctx, ws[0], Partitioners()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CommExperiment(ctx, ws); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SpeedupExperiment(ctx, sim.DefaultConfig(), ws); err != nil {
		t.Fatal(err)
	}
	p2, err := e.Pipeline(ctx, ws[0], Partitioners()[0])
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("pipeline rebuilt despite cache")
	}
}

// TestEngineCancellation checks that a context cancelled mid-matrix makes
// the engine return promptly with a wrapped cancellation error.
func TestEngineCancellation(t *testing.T) {
	ws := workloads.All()

	// Pre-cancelled: deterministic, must fail immediately.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	e := NewEngine(EngineOptions{Jobs: 2})
	if _, err := e.CommExperiment(pre, ws); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	// Cancelled mid-matrix: must return well before a full serial run
	// would. If the matrix happens to finish before the cancel lands the
	// run legitimately succeeds, so only a slow return is a failure.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := NewEngine(EngineOptions{Jobs: 2}).CommExperiment(ctx, ws)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-matrix: err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled run took %v, want prompt return", elapsed)
	}
}

// panicPartitioner panics wherever it is asked to partition.
type panicPartitioner struct{}

func (panicPartitioner) Name() string { return "PANIC" }
func (panicPartitioner) Partition(*ir.Function, *pdg.Graph, *ir.Profile, int) (map[*ir.Instr]int, error) {
	panic("partitioner exploded")
}

// TestMemoKeepsPanic: a pipeline slot whose fill panicked answers every
// later caller with that panic, not with a nil pipeline the next measure
// dereferences (a different panic) or zero cycles and no error.
func TestMemoKeepsPanic(t *testing.T) {
	ctx := context.Background()
	w := subset(t, "ks")[0]
	e := NewEngine(EngineOptions{Jobs: 1})
	wantPanic := func(what string, err error) {
		t.Helper()
		var se *StageError
		if !errors.As(err, &se) || se.Class != FailPanic || !strings.Contains(se.Error(), "partitioner exploded") {
			t.Errorf("%s: err = %v, want a %s StageError carrying the partitioner's panic", what, err, FailPanic)
		}
	}
	_, err := e.CommCell(ctx, w, panicPartitioner{})
	wantPanic("CommCell", err)
	_, err = e.SpeedupCell(ctx, sim.DefaultConfig(), w, panicPartitioner{})
	wantPanic("SpeedupCell after it", err)

	var m memo[int64]
	for i := 0; i < 2; i++ {
		v, err := m.do(func() (int64, error) { panic("fill exploded") })
		if v != 0 || err == nil || err.Error() != "panic: fill exploded" {
			t.Errorf("call %d: (%d, %v), want the fill's panic as the error", i, v, err)
		}
	}
}

// TestEngineBudgetEnforced checks that the configurable budget reaches the
// interpreter: an absurdly small profiling budget must abort with
// ErrStepLimit.
func TestEngineBudgetEnforced(t *testing.T) {
	ws := subset(t, "ks")
	e := NewEngine(EngineOptions{Jobs: 1, Budget: budget.Budget{ProfileSteps: 10}})
	_, err := e.CommExperiment(context.Background(), ws)
	if !errors.Is(err, interp.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit from the 10-step profile budget", err)
	}
}
