package exp

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestEngineKeysAreIdentity pins the memo key: a slot belongs to one
// *workloads.Workload value. Two workloads sharing a Name but differing
// in content (here: swapped train and reference inputs) never collide —
// they did when artifacts and single-threaded baselines were keyed by
// bare name, and the second workload was served the first one's — and
// re-asking for the same value recomputes nothing.
func TestEngineKeysAreIdentity(t *testing.T) {
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
		t.Fatalf("ProfileRuns = %d, want 2 (one per distinct workload)", st.ProfileRuns)
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
	again, err := e.Artifact(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if again != artA {
		t.Fatal("re-asking for the same workload value built a second artifact")
	}
	if st := e.Stats(); st.ProfileRuns != 2 {
		t.Fatalf("ProfileRuns after re-ask = %d, want 2", st.ProfileRuns)
	}
}

// TestEngineEqualContentDistinctValues: two workloads with equal content
// are still two functions with their own instructions, and an artifact
// built over one is meaningless for the other. Keyed by fingerprint, the
// second pipeline paired the first call's PDG with the second call's IR
// and the partitioner found every instruction unassigned.
func TestEngineEqualContentDistinctValues(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(EngineOptions{Jobs: 1})
	if _, err := e.Pipeline(ctx, workloads.KS(), partition.GREMIO{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Pipeline(ctx, workloads.KS(), partition.DSWP{}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ProfileRuns != 2 {
		t.Fatalf("ProfileRuns = %d, want 2 (one per workload value)", st.ProfileRuns)
	}
}
