package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/interp"
	"repro/internal/sim"
)

// FuzzInlineIR feeds arbitrary text through Request.workload, the door
// inline IR comes in by (ROADMAP 6c). It must be refused with an error or
// come out a function that verifies; and a verified function must run in
// the golden interpreter and on one simulated core to a result or an error
// within a small budget, never a panic.
func FuzzInlineIR(f *testing.F) {
	files, err := filepath.Glob("../oracle/testdata/corpus/*.ir")
	if err != nil || len(files) == 0 {
		f.Fatalf("no oracle corpus to seed from (%v)", err)
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Fuzz(func(t *testing.T, text string) {
		w, err := (&Request{IR: text}).workload()
		if err != nil {
			return
		}
		if err := w.F.Verify(); err != nil {
			t.Fatalf("workload accepted a function Verify rejects: %v", err)
		}
		args := make([]int64, len(w.F.Params))
		_, _ = interp.Run(w.F, args, make(interp.Memory, 64), 10_000)
		_, _ = sim.RunSingle(sim.DefaultConfig(), w.F, args, make([]int64, 64), 10_000)
	})
}
