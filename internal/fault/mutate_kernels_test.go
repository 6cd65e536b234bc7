package fault_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/workloads"
)

// TestMutateKernels holds Mutate to its contract on every kernel × {GREMIO,
// DSWP} naive and COCO program, for every class that edits a program: the
// same seed gives byte-identical mutant text; the input program's text and
// Origins are untouched; the mutant verifies; and the mutant differs from
// its input in one block of one thread, a block whose origin executed in
// the train profile.
func TestMutateKernels(t *testing.T) {
	ctx := context.Background()
	e := exp.NewEngine(exp.EngineOptions{Jobs: 1})
	classes := []fault.Class{fault.DropProduce, fault.DupProduce, fault.CorruptValue,
		fault.SwapQueue, fault.MisplacePlan}
	for _, w := range workloads.All() {
		for _, part := range exp.Partitioners() {
			p, err := e.Pipeline(ctx, w, part)
			if err != nil {
				t.Fatal(err)
			}
			freq := p.Profile.Frequencies(p.W.F)
			for _, prog := range []*mtcg.Program{p.Naive, p.Coco} {
				text := threadText(prog)
				var origins [][]*ir.Block
				for _, o := range prog.Origins {
					origins = append(origins, slices.Clone(o))
				}
				for _, cls := range classes {
					name := w.Name + "/" + part.Name() + "/" + string(cls)
					spec := fault.Spec{Class: cls, Seed: 1}
					a, desc, ok, err := fault.Mutate(prog, p.Profile, spec)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !ok {
						// Only a program without communication, or a swap
						// with one queue, has nowhere to put the fault.
						if prog.NumQueues > 1 || prog.NumQueues == 1 && cls != fault.SwapQueue {
							t.Errorf("%s: no mutant of a %d-queue program", name, prog.NumQueues)
						}
						continue
					}
					b, _, _, _ := fault.Mutate(prog, p.Profile, spec)
					if threadText(a) != threadText(b) {
						t.Errorf("%s: same seed, different mutants", name)
					}
					if threadText(prog) != text || !slices.EqualFunc(prog.Origins, origins, slices.Equal) {
						t.Fatalf("%s: Mutate changed its input", name)
					}
					for _, f := range a.Threads {
						if err := f.Verify(); err != nil {
							t.Errorf("%s: mutant does not verify: %v", name, err)
						}
					}
					var edited [][2]int
					for ti, f := range a.Threads {
						for bi, blk := range f.Blocks {
							if blockText(blk) != blockText(prog.Threads[ti].Blocks[bi]) {
								edited = append(edited, [2]int{ti, bi})
							}
						}
					}
					if len(edited) != 1 {
						t.Errorf("%s (%s): %d blocks edited, want 1", name, desc, len(edited))
						continue
					}
					if at := edited[0]; freq[prog.Origins[at[0]][at[1]].ID] == 0 {
						t.Errorf("%s (%s): edited a block that never executed", name, desc)
					}
				}
			}
		}
	}
}

func threadText(prog *mtcg.Program) string {
	s := ""
	for _, f := range prog.Threads {
		s += f.String()
	}
	return s
}

func blockText(b *ir.Block) string {
	s := b.Name
	for _, in := range b.Instrs {
		s += "\n" + in.String()
	}
	return s
}
