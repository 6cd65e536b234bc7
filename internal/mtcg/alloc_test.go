package mtcg_test

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/randprog"
	"repro/internal/workloads"
)

// TestCompileAllocations bounds what the compile path before COCO allocates:
// pdg.Build, both partitioners, and a naive plan generated for each
// partition. The bounds, one above the counts measured under -race (a
// plain run reads four fewer), hold the ID-indexed tables of pdg,
// partition and mtcg in place, each allocated once at its final size. With
// the chains, the arc slab, the components and every generated
// instruction, block and instruction list grown or allocated one by one,
// the same work allocated 1 159 times for ks and 2 540 times for the
// size-160 program; with adjacency maps, string-keyed arc deduplication,
// map-keyed partitioner state and a post-dominator tree per generated
// program, 3 000 and 7 499 times.
func TestCompileAllocations(t *testing.T) {
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
		{"ks", ks.F, ks.Objects, train.Args, train.Mem, 709},
		{"randprog160", rp.F, rp.Objects, rp.Args, rp.Mem, 1520},
	} {
		res, err := interp.Run(c.f, c.args, append([]int64(nil), c.mem...), 1<<30)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			g := pdg.Build(c.f, c.objects)
			for _, part := range []partition.Partitioner{partition.DSWP{}, partition.GREMIO{}} {
				assign, err := part.Partition(c.f, g, res.Profile, 2)
				if err != nil {
					t.Fatalf("%s/%s: %v", c.name, part.Name(), err)
				}
				if _, err := mtcg.Generate(mtcg.NaivePlan(c.f, g, assign, 2)); err != nil {
					t.Fatalf("%s/%s: %v", c.name, part.Name(), err)
				}
			}
		})
		t.Logf("%s: %.0f allocations (limit %.0f)", c.name, allocs, c.limit)
		if allocs > c.limit {
			t.Errorf("%s: the compile path allocates %.0f times, limit %.0f", c.name, allocs, c.limit)
		}
	}
}
