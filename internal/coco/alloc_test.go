package coco_test

import (
	"testing"

	"repro/internal/coco"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/randprog"
	"repro/internal/workloads"
)

// TestPlanAllocations bounds what one coco.Plan call allocates, so that a
// change cannot quietly go back to rebuilding the planner's inputs — the
// per-point live and safe sets, the flow graph, the control-dependence
// closures — once per register. Each bound is a third of what the call
// allocated while it did (362fca4: 8 026 allocations for ks under DSWP,
// 18 579 for the 160-instruction program); the planner now needs about an
// eleventh of either.
func TestPlanAllocations(t *testing.T) {
	ks := workloads.KS()
	train := ks.Train()
	_, rp := randprog.GenerateSized(7454799319867459659+1, 160) // the benchmark's second inline program
	for _, c := range []struct {
		name    string
		f       *ir.Function
		objects []ir.MemObject
		args    []int64
		mem     []int64
		limit   float64
	}{
		{"ks", ks.F, ks.Objects, train.Args, train.Mem, 8026 / 3},
		{"randprog160", rp.F, rp.Objects, rp.Args, rp.Mem, 18579 / 3},
	} {
		res, err := interp.Run(c.f, c.args, append([]int64(nil), c.mem...), 1<<30)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g := pdg.Build(c.f, c.objects)
		assign, err := partition.DSWP{}.Partition(c.f, g, res.Profile, 2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := coco.Plan(c.f, g, assign, 2, res.Profile, coco.DefaultOptions()); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s: %.0f allocations per Plan (limit %.0f)", c.name, allocs, c.limit)
		if allocs > c.limit {
			t.Errorf("%s: coco.Plan allocates %.0f times, limit %.0f", c.name, allocs, c.limit)
		}
	}
}
