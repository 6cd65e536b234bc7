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
// closures once per register, or the reaching-definition chains and the
// CDG the PDG already carries once per plan — or to growing the flow
// network arc by arc. Each bound is one above the count measured; with
// the network's arcs, points and per-node adjacency lists grown by append
// a call allocated 292 times for ks under DSWP and 485 times for the
// 160-instruction program, and while it computed its own chains and CDG
// (6127341) 703 and 1 738 times.
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
		{"ks", ks.F, ks.Objects, train.Args, train.Mem, 161},
		{"randprog160", rp.F, rp.Objects, rp.Args, rp.Mem, 188},
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
