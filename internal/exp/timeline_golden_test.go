package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

const (
	timelineGolden = "testdata/timeline_mpeg2enc.golden"
	// timelineLimit holds all of mpeg2enc's ~270 000 timeline events, so
	// nothing is dropped and the hash covers every run to its end.
	timelineLimit = 300_000
)

// timelineLines runs mpeg2enc under both partitioners with the detailed
// timeline attached — interpreter queue lanes (stepThread) and simulator
// stall/occupancy lanes (stepCore) — plus mpeg2enc's row of the chaos matrix
// (explicit policies and every injector), and summarizes each as one
// line: a SHA-256 of the bytes and the counts that say how much of the run
// they cover.
func timelineLines(t *testing.T) string {
	t.Helper()
	w, err := workloads.ByName("mpeg2enc")
	if err != nil {
		t.Fatal(err)
	}
	ws := []*workloads.Workload{w}
	ctx := context.Background()
	o := &Obs{Trace: obs.NewTrace(), Timeline: true}
	o.Trace.SetLimit(timelineLimit)
	e := NewEngine(EngineOptions{Jobs: 1, Obs: o})
	if _, err := e.CommExperiment(ctx, ws); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SpeedupExperiment(ctx, sim.DefaultConfig(), ws); err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := o.Trace.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	var parsed struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(tb.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	cells, err := NewEngine(EngineOptions{Jobs: 1}).CoverageMatrix(ctx, ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	for _, c := range cells {
		fmt.Fprintf(&cb, "%+v\n", c)
	}
	return fmt.Sprintf("timeline sha256=%x events=%d dropped=%d\nchaos sha256=%x cells=%d\n",
		sha256.Sum256(tb.Bytes()), len(parsed.TraceEvents), o.Trace.Dropped(),
		sha256.Sum256(cb.Bytes()), len(cells))
}

// TestTimelineGolden pins what the executors' observed, injected and
// explicitly scheduled loops record — every queue-depth sample, stall span,
// chaos outcome and failure detail — without checking in the hundreds of
// thousands of timeline events themselves. Regenerate deliberately with:
//
//	go test ./internal/exp -run TimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mpeg2enc with the detailed timeline and its chaos row")
	}
	got := timelineLines(t)
	if *updateGolden {
		if err := os.WriteFile(timelineGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(timelineGolden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/exp -run TimelineGolden -update`)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\ngot:\n%swant:\n%s", timelineGolden, got, want)
	}
}
