package workloads_test

import (
	"fmt"
	"os"
	"reflect"
	"strings"
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

// constructors is the test's own name → constructor table: the values
// these build never see the kernels table, so their fingerprints are
// hashed from their content.
var constructors = map[string]func() *workloads.Workload{
	"adpcmdec": workloads.ADPCMDec, "adpcmenc": workloads.ADPCMEnc, "ks": workloads.KS,
	"mpeg2enc": workloads.MPEG2Enc, "177.mesa": workloads.Mesa, "181.mcf": workloads.MCF,
	"183.equake": workloads.Equake, "188.ammp": workloads.AMMP, "300.twolf": workloads.Twolf,
	"435.gromacs": workloads.Gromacs, "458.sjeng": workloads.Sjeng,
}

// TestTableHandsOutOneValue: a kernel is built once per process. ByName and
// All hand out the same shared value on every call, and a constructor
// called directly builds a value of its own.
func TestTableHandsOutOneValue(t *testing.T) {
	all := workloads.All()
	for i, name := range workloads.Names() {
		a, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := workloads.ByName(name); a != b {
			t.Errorf("ByName(%s) returned two values", name)
		}
		if all[i] != a {
			t.Errorf("All()[%d] is not ByName(%s)", i, name)
		}
		if constructors[name]() == a {
			t.Errorf("the %s constructor returned the table's value", name)
		}
	}
}

// TestFingerprintConcurrentFirstUse: a table value and its fingerprint
// are built on first use, which may come from many requests at once (CI
// runs this package under -race).
func TestFingerprintConcurrentFirstUse(t *testing.T) {
	want := constructors["188.ammp"]().Fingerprint()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w, err := workloads.ByName("188.ammp"); err == nil {
				got[g] = w.Fingerprint()
			}
		}()
	}
	wg.Wait()
	for g, fp := range got {
		if fp != want {
			t.Errorf("goroutine %d: fingerprint %q, want %s", g, fp, want)
		}
	}
}

// TestFingerprintMemoIsPerKernelNotPerName: a value built and changed by
// the caller hashes what it holds, and neither reads nor writes the
// fingerprint of the table's value of its name — in either order of first
// use.
func TestFingerprintMemoIsPerKernelNotPerName(t *testing.T) {
	swapped := func(name string) *workloads.Workload {
		w := constructors[name]()
		w.Train, w.Ref = w.Ref, w.Train
		return w
	}
	early := swapped("adpcmenc").Fingerprint() // before the table's value is hashed
	for _, name := range []string{"adpcmenc", "adpcmdec"} {
		w, _ := workloads.ByName(name)
		own := constructors[name]().Fingerprint()
		if w.Fingerprint() != own {
			t.Errorf("%s: table value %s, own content %s", name, w.Fingerprint(), own)
		}
		if fp := swapped(name).Fingerprint(); fp == own {
			t.Errorf("%s: swapping Train and Ref left the fingerprint at %s", name, fp)
		}
	}
	if late := swapped("adpcmenc").Fingerprint(); late != early {
		t.Errorf("swapped adpcmenc hashed to %s before the table was used and %s after", early, late)
	}
}

// TestFingerprintsGolden holds every kernel's fingerprint to
// testdata/fingerprints.golden, generated before the kernels table
// memoized fingerprints and before cache.Hasher stopped using fmt. Cache
// directories written by older binaries are keyed by these strings, so
// the file changes only together with a schema bump. Both ways to a
// fingerprint must give the golden one: the table's value (ByName, hashed
// once, then a load) and the content hash of a directly constructed value.
func TestFingerprintsGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/fingerprints.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	names := workloads.Names()
	if len(lines) != len(names) {
		t.Fatalf("golden has %d lines, want one per kernel (%d)", len(lines), len(names))
	}
	for i, line := range lines {
		name, want, _ := strings.Cut(line, " ")
		if name != names[i] {
			t.Fatalf("golden line %d is %q, want %q (Figure 6(b) order)", i+1, name, names[i])
		}
		for round := 1; round <= 2; round++ {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.Fingerprint(); got != want {
				t.Errorf("ByName(%s).Fingerprint(), value %d = %s, want %s", name, round, got, want)
			}
			if got := constructors[name]().Fingerprint(); got != want {
				t.Errorf("%s constructed directly, value %d: content hash %s, want %s", name, round, got, want)
			}
		}
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
