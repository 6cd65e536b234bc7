package exp

import (
	"context"
	"testing"

	"repro/internal/budget"
	"repro/internal/coco"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func budgetWith(profileSteps int64) budget.Budget {
	b := budget.Experiments()
	b.ProfileSteps = profileSteps
	return b
}

// TestEngineKeysAreContentAddressed pins the memo-key staleness fix: two
// workloads sharing a Name but differing in content (here: swapped train
// and reference inputs) must not collide in the engine's caches. Before
// the fix, artifacts and single-threaded baselines were keyed by bare
// workload name, so the second workload was served the first one's
// artifacts.
func TestEngineKeysAreContentAddressed(t *testing.T) {
	ctx := context.Background()
	cfg := sim.DefaultConfig()

	a := workloads.KS()
	b := workloads.KS()
	// Same name, same IR — different inputs. The train input drives the
	// profile artifact; the reference input drives measurements.
	b.Train, b.Ref = a.Ref, a.Train

	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("workload fingerprints ignore inputs")
	}
	if a.Fingerprint() != workloads.KS().Fingerprint() {
		t.Fatal("workload fingerprint is not deterministic")
	}

	e := NewEngine(EngineOptions{Jobs: 1})
	artA, err := e.Artifact(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	artB, err := e.Artifact(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if artA == artB {
		t.Fatal("same-named workloads with different inputs share one artifact slot")
	}
	if st := e.Stats(); st.ProfileRuns != 2 {
		t.Fatalf("ProfileRuns = %d, want 2 (one per distinct content)", st.ProfileRuns)
	}

	cyclesA, err := e.SingleThreadedCycles(ctx, cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	cyclesB, err := e.SingleThreadedCycles(ctx, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if cyclesA == cyclesB {
		t.Fatalf("single-threaded baselines collide (%d cycles) despite different reference inputs", cyclesA)
	}

	// The memoization itself still works: asking again recomputes nothing.
	if _, err := e.Artifact(ctx, a); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ProfileRuns != 2 {
		t.Fatalf("ProfileRuns after re-ask = %d, want 2", st.ProfileRuns)
	}
}

// TestEngineOptionsChangeKeys asserts the option fingerprint differs when
// any field optionsKey hashes differs: each budget and each COCO option.
func TestEngineOptionsChangeKeys(t *testing.T) {
	base := NewEngine(EngineOptions{}).optsKey
	measure, simCycles := budget.Experiments(), budget.Experiments()
	measure.MeasureSteps = 1000
	simCycles.SimCycles = 1000
	noPenalties, noSharing := coco.DefaultOptions(), coco.DefaultOptions()
	noPenalties.ControlPenalties = false
	noSharing.ShareMemSync = false
	for _, c := range []struct {
		name string
		opts EngineOptions
	}{
		{"budget.profile", EngineOptions{Budget: budgetWith(1000)}},
		{"budget.measure", EngineOptions{Budget: measure}},
		{"budget.sim", EngineOptions{Budget: simCycles}},
		{"coco.control", EngineOptions{Coco: &noPenalties}},
		{"coco.sharemem", EngineOptions{Coco: &noSharing}},
	} {
		if NewEngine(c.opts).optsKey == base {
			t.Errorf("%s not folded into the engine options key", c.name)
		}
	}
}
