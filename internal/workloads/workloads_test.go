package workloads_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/coco"
	"repro/internal/interp"
	"repro/internal/mtcg"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/workloads"
)

const stepBudget = 50_000_000

func TestAllWorkloadsVerifyAndRun(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			if err := w.F.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			for _, in := range []struct {
				name string
				in   workloads.Input
			}{{"train", w.Train()}, {"ref", w.Ref()}} {
				res, err := interp.Run(w.F, in.in.Args, in.in.Mem, stepBudget)
				if err != nil {
					t.Fatalf("%s run: %v", in.name, err)
				}
				if res.Steps == 0 {
					t.Errorf("%s: no instructions executed", in.name)
				}
				if len(res.LiveOuts) == 0 {
					t.Errorf("%s: no live-outs", in.name)
				}
			}
			// Reference inputs must be substantially larger than train.
			train, _ := interp.Run(w.F, w.Train().Args, w.Train().Mem, stepBudget)
			ref, _ := interp.Run(w.F, w.Ref().Args, w.Ref().Mem, stepBudget)
			if ref.Steps < 4*train.Steps {
				t.Errorf("ref (%d steps) not much larger than train (%d steps)", ref.Steps, train.Steps)
			}
		})
	}
}

func TestWorkloadNamesUniqueAndComplete(t *testing.T) {
	all := workloads.All()
	if len(all) != 11 {
		t.Fatalf("got %d workloads, want 11 (Figure 6(b))", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if w.ExecPct <= 0 || w.ExecPct > 100 {
			t.Errorf("%s: exec%% = %d", w.Name, w.ExecPct)
		}
		if w.Function == "" || w.Suite == "" {
			t.Errorf("%s: missing metadata", w.Name)
		}
	}
	// Figure 6(b) order feeds every golden; All, Names and ByName are
	// driven by one table whose name column must match what each
	// constructor returns.
	want := []string{"adpcmdec", "adpcmenc", "ks", "mpeg2enc", "177.mesa", "181.mcf",
		"183.equake", "188.ammp", "300.twolf", "435.gromacs", "458.sjeng"}
	names := workloads.Names()
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want Figure 6(b) order %v", names, want)
	}
	for i, name := range names {
		if all[i].Name != name {
			t.Errorf("All()[%d].Name = %q, but the table row is named %q", i, all[i].Name, name)
		}
		w, err := workloads.ByName(name)
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		} else if w.Name != name {
			t.Errorf("ByName(%s) built %q", name, w.Name)
		}
	}
	if _, err := workloads.ByName("nope"); err == nil {
		t.Error("ByName accepted unknown workload")
	}
}

// TestFullPipelineEquivalence runs every workload through both partitioners,
// both plans (naive MTCG and COCO), queue allocation, and the deterministic
// MT interpreter, checking equivalence with the single-threaded result on
// the train input.
func TestFullPipelineEquivalence(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			in := w.Train()
			st, err := interp.Run(w.F, in.Args, append([]int64(nil), in.Mem...), stepBudget)
			if err != nil {
				t.Fatalf("ST: %v", err)
			}
			g := pdg.Build(w.F, w.Objects)
			prof := st.Profile

			for _, part := range []partition.Partitioner{partition.DSWP{}, partition.GREMIO{}} {
				assign, err := part.Partition(w.F, g, prof, 2)
				if err != nil {
					t.Fatalf("%s: %v", part.Name(), err)
				}
				plans := map[string]*mtcg.Plan{}
				plans["naive"] = mtcg.NaivePlan(w.F, g, assign, 2)
				cocoPlan, err := coco.Plan(w.F, g, assign, 2, prof, coco.DefaultOptions())
				if err != nil {
					t.Fatalf("%s coco: %v", part.Name(), err)
				}
				plans["coco"] = cocoPlan

				var commCounts = map[string]int64{}
				for name, plan := range plans {
					prog, err := mtcg.Generate(plan)
					if err != nil {
						t.Fatalf("%s/%s generate: %v", part.Name(), name, err)
					}
					for _, ft := range prog.Threads {
						if err := ft.Verify(); err != nil {
							t.Fatalf("%s/%s thread: %v", part.Name(), name, err)
						}
					}
					queue.Allocate(prog)
					mt, err := interp.RunMT(interp.MTConfig{
						Threads: prog.Threads, NumQueues: prog.NumQueues,
						Assign: assign, Args: in.Args,
						Mem: append([]int64(nil), in.Mem...), MaxSteps: stepBudget,
					})
					if err != nil {
						t.Fatalf("%s/%s MT: %v", part.Name(), name, err)
					}
					if len(mt.LiveOuts) != len(st.LiveOuts) {
						t.Fatalf("%s/%s live-out count %d, want %d",
							part.Name(), name, len(mt.LiveOuts), len(st.LiveOuts))
					}
					for i := range st.LiveOuts {
						if mt.LiveOuts[i] != st.LiveOuts[i] {
							t.Errorf("%s/%s live-out %d: MT %d, ST %d",
								part.Name(), name, i, mt.LiveOuts[i], st.LiveOuts[i])
						}
					}
					for a := range st.Mem {
						if mt.Mem[a] != st.Mem[a] {
							t.Fatalf("%s/%s mem[%d]: MT %d, ST %d",
								part.Name(), name, a, mt.Mem[a], st.Mem[a])
						}
					}
					commCounts[name] = mt.Stats.Comm()
				}
				if commCounts["coco"] > commCounts["naive"] {
					t.Errorf("%s: COCO increased communication (%d > %d)",
						part.Name(), commCounts["coco"], commCounts["naive"])
				}
			}
		})
	}
}

// TestWorkloadSharedReadSafety exercises the concurrency contract the
// experiment engine depends on: one *Workload — its IR function, objects,
// and input constructors — is shared by many goroutines that
// simultaneously profile it, build its PDG, and interpret it. The IR is
// immutable after construction and Train/Ref return fresh copies, so this
// must be race-free (CI runs this package under -race).
func TestWorkloadSharedReadSafety(t *testing.T) {
	w, err := workloads.ByName("ks")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := w.Train()
			if _, err := interp.Run(w.F, in.Args, in.Mem, stepBudget); err != nil {
				errs <- err
				return
			}
			g := pdg.Build(w.F, w.Objects)
			if g.NumArcs() == 0 {
				errs <- fmt.Errorf("empty PDG")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
