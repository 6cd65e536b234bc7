package exp

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestFiguresGolden pins the figures the paper is compared on: the stdout
// of `experiments -j 1` (Figures 6(a), 6(b), 1, 7 and 8 over every
// workload), rendered at Jobs 1 and at Jobs 4, each byte for byte. A
// change that moves a figure row shows it as this golden's diff.
// Regenerate deliberately with:
//
//	go test ./internal/exp -run FiguresGolden -update
func TestFiguresGolden(t *testing.T) {
	const path = "testdata/figures.golden"
	for _, jobs := range []int{1, 4} {
		var got bytes.Buffer
		e := NewEngine(EngineOptions{Jobs: jobs})
		if err := e.RenderFigures(context.Background(), &got, sim.DefaultConfig(), workloads.All(), "all", false, nil); err != nil {
			t.Fatalf("jobs %d: %v", jobs, err)
		}
		if *updateGolden && jobs == 1 {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/exp -run FiguresGolden -update`)", err)
		}
		gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("jobs %d, line %d:\n got %q\nwant %q", jobs, i+1, g, w)
			}
		}
	}
}
