package attr

import (
	"strings"
	"testing"
)

func TestBucketNames(t *testing.T) {
	seen := map[string]bool{}
	for b := Bucket(0); b < NumBuckets; b++ {
		n := b.String()
		if n == "" || strings.HasPrefix(n, "bucket(") {
			t.Errorf("bucket %d has no name", int(b))
		}
		if seen[n] {
			t.Errorf("duplicate bucket name %q", n)
		}
		seen[n] = true
	}
	if got := Bucket(200).String(); got != "bucket(200)" {
		t.Errorf("out-of-range bucket name = %q", got)
	}
}

func TestNoteAndConservation(t *testing.T) {
	r := NewRun([]int{3, 2}, 2)
	// Core 0: 4 cycles — issue, issue, queue-empty (instr 1, queue 0), idle.
	r.Note(0, Issue, 0, -1)
	r.Note(0, Issue, 2, -1)
	r.Note(0, QueueEmpty, 1, 0)
	r.Note(0, Idle, -1, -1)
	// Core 1: 4 cycles — issue, queue-full (instr 0, queue 1), memory, branch.
	r.Note(1, Issue, 0, -1)
	r.Note(1, QueueFull, 0, 1)
	r.Note(1, Memory, 1, -1)
	r.Note(1, Branch, 1, -1)

	if err := r.CheckConservation([]int64{4, 4}); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	if err := r.CheckConservation([]int64{4, 5}); err == nil {
		t.Fatal("conservation accepted a wrong total")
	}
	if got := r.Queues[0][QueueEmpty]; got != 1 {
		t.Errorf("queue 0 queue-empty blame = %d, want 1", got)
	}
	if got := r.Queues[1][QueueFull]; got != 1 {
		t.Errorf("queue 1 queue-full blame = %d, want 1", got)
	}
	tot := r.TotalBuckets()
	if tot.Total() != 8 {
		t.Errorf("total buckets sum to %d, want 8", tot.Total())
	}
	if tot[Issue] != 3 {
		t.Errorf("total issue = %d, want 3", tot[Issue])
	}
}

func TestConservationCatchesInstrMismatch(t *testing.T) {
	r := NewRun([]int{2}, 0)
	// Core tally says issue, but no instruction blamed: instr sums diverge.
	r.Cores[0][Issue] = 1
	if err := r.CheckConservation([]int64{1}); err == nil {
		t.Fatal("conservation accepted core tally without instruction blame")
	}
}

func TestNilRun(t *testing.T) {
	var r *Run
	r.Note(0, Issue, 0, 0) // must not panic
	if err := r.CheckConservation(nil); err == nil {
		t.Fatal("nil run must not conserve")
	}
	if got := r.TotalBuckets(); got.Total() != 0 {
		t.Errorf("nil run total = %d", got.Total())
	}
}
