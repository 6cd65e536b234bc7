package ir

import (
	"slices"
	"testing"
)

// TestProfileAnswers pins what a profile answers on four shapes, against
// counts worked out by hand from the run each tally records. BlockWeight
// sums a block's incoming edges once per distinct predecessor (its outgoing
// edges, once per distinct successor, for a block without predecessors);
// Frequencies is the exact count. They agree on a branch whose two arms
// reach one block, where the target lists its predecessor twice, and
// differ on an entry block with a back edge, whose weight counts only the
// back edge.
func TestProfileAnswers(t *testing.T) {
	type edge struct {
		from, to string
		n        int64
	}
	for _, tc := range []struct {
		name   string
		text   string
		exits  [][2]int64 // the tally of one run, by block ID
		edges  []edge     // EdgeWeight, every CFG edge
		weight []int64    // BlockWeight, by block ID
		freq   []int64    // Frequencies, by block ID
	}{{
		// entry runs once and both arms of its branch reach join.
		name:   "same-target branch",
		text:   "func f()\nentry:\n  r1 = const 1\n  br r1 join, join\njoin:\n  ret r1\n",
		exits:  [][2]int64{{1, 0}, {0, 0}},
		edges:  []edge{{"entry", "join", 1}},
		weight: []int64{1, 1},
		freq:   []int64{1, 1},
	}, {
		// r1 = 3: entry runs three times, loops back twice, exits once.
		name:   "entry with a back edge",
		text:   "func f(r1)\nentry:\n  r2 = const 1\n  r1 = sub r1, r2\n  br r1 entry, exit\nexit:\n  ret r1\n",
		exits:  [][2]int64{{2, 1}, {0, 0}},
		edges:  []edge{{"entry", "entry", 2}, {"entry", "exit", 1}},
		weight: []int64{2, 1},
		freq:   []int64{3, 1},
	}, {
		name:   "one ret block",
		text:   "func f()\nentry:\n  ret\n",
		exits:  [][2]int64{{0, 0}},
		weight: []int64{1},
		freq:   []int64{1},
	}, {
		// r1 = 5: the body runs five times, the latch four.
		name: "loop",
		text: "func sum(r1)\nentry:\n  r2 = const 0\n  r3 = const 1\n  jump loop\n" +
			"loop:\n  r2 = add r2, r1\n  r1 = sub r1, r3\n  br r1 latch, exit\n" +
			"latch:\n  jump loop\nexit:\n  ret r2\n",
		exits:  [][2]int64{{1, 0}, {4, 1}, {4, 0}, {0, 0}},
		edges:  []edge{{"entry", "loop", 1}, {"loop", "latch", 4}, {"loop", "exit", 1}, {"latch", "loop", 4}},
		weight: []int64{1, 5, 4, 1},
		freq:   []int64{1, 5, 4, 1},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			f := MustParse(tc.text)
			// The same profile counted by the run and built edge by edge.
			built := NewProfile(f)
			for _, e := range tc.edges {
				built.AddEdge(f.BlockByName(e.from), f.BlockByName(e.to), e.n)
			}
			if !slices.Equal(built.Exits, tc.exits) {
				t.Fatalf("AddEdge built %v, want %v", built.Exits, tc.exits)
			}
			p := &Profile{Exits: tc.exits}
			if err := p.Verify(f, 100); err != nil {
				t.Fatal(err)
			}
			for _, e := range tc.edges {
				if got := p.EdgeWeight(f.BlockByName(e.from), f.BlockByName(e.to)); got != e.n {
					t.Errorf("EdgeWeight(%s, %s) = %d, want %d", e.from, e.to, got, e.n)
				}
			}
			for _, b := range f.Blocks {
				if got := p.BlockWeight(b); got != tc.weight[b.ID] {
					t.Errorf("BlockWeight(%s) = %d, want %d", b.Name, got, tc.weight[b.ID])
				}
			}
			if got := p.Frequencies(f); !slices.Equal(got, tc.freq) {
				t.Errorf("Frequencies = %v, want %v", got, tc.freq)
			}
		})
	}
}

// TestProfileAddEdgeNotSuccessor: an edge the CFG lacks has no slot, so
// AddEdge refuses it and stores nothing; EdgeWeight reads it as 0.
func TestProfileAddEdgeNotSuccessor(t *testing.T) {
	f := MustParse("func f()\nentry:\n  jump exit\nexit:\n  ret\n")
	entry, exit := f.Blocks[0], f.Blocks[1]
	p := NewProfile(f)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddEdge(exit, entry) did not panic")
			}
		}()
		p.AddEdge(exit, entry, 1)
	}()
	if !slices.Equal(p.Exits, [][2]int64{{0, 0}, {0, 0}}) {
		t.Errorf("tally after a refused edge = %v, want empty", p.Exits)
	}
	if w := p.EdgeWeight(exit, entry); w != 0 {
		t.Errorf("EdgeWeight(exit, entry) = %d, want 0", w)
	}
}

// TestProfileVerify: the tallies no run of a function can count.
func TestProfileVerify(t *testing.T) {
	// entry branches to mid or to exit; mid jumps to exit.
	f := MustParse("func f(r1)\nentry:\n  br r1 mid, exit\nmid:\n  jump exit\nexit:\n  ret\n")
	same := MustParse("func f()\nentry:\n  r1 = const 1\n  br r1 join, join\njoin:\n  ret r1\n")
	for _, tc := range []struct {
		name  string
		f     *Function
		exits [][2]int64
		steps int64
		ok    bool
	}{
		{"a run", f, [][2]int64{{1, 0}, {1, 0}, {0, 0}}, 3, true},
		{"more blocks", f, [][2]int64{{1, 0}, {1, 0}, {0, 0}, {0, 0}}, 3, false},
		{"negative count", f, [][2]int64{{-1, 0}, {0, 0}, {0, 0}}, 3, false},
		{"exit to a missing successor", f, [][2]int64{{1, 0}, {0, 1}, {0, 0}}, 3, false},
		{"exit from a ret", f, [][2]int64{{0, 1}, {0, 0}, {1, 0}}, 3, false},
		{"more exits than steps", f, [][2]int64{{1, 0}, {1, 0}, {0, 0}}, 1, false},
		{"same-target branch, first arm", same, [][2]int64{{1, 0}, {0, 0}}, 3, true},
		{"same-target branch, second arm", same, [][2]int64{{0, 1}, {0, 0}}, 3, false},
	} {
		err := (&Profile{Exits: tc.exits}).Verify(tc.f, tc.steps)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Verify = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
