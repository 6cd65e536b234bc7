package analysis

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ir"
)

// buildLoopNest constructs:
//
//	entry -> outer ; outer -> inner ; inner -Br-> inner, latch
//	latch -Br-> outer, exit ; exit: ret
func buildLoopNest() *ir.Function {
	b := ir.NewBuilder("nest")
	p := b.Param()
	outer := b.Block("outer")
	inner := b.Block("inner")
	latch := b.Block("latch")
	exit := b.Block("exit")

	b.Jump(outer)
	b.SetBlock(outer)
	b.Jump(inner)
	b.SetBlock(inner)
	c1 := b.CmpGT(p, b.Const(0))
	b.Br(c1, inner, latch)
	b.SetBlock(latch)
	c2 := b.CmpGT(p, b.Const(1))
	b.Br(c2, outer, exit)
	b.SetBlock(exit)
	b.Ret()
	return b.F
}

func buildDiamond() *ir.Function {
	b := ir.NewBuilder("diamond")
	p := b.Param()
	then := b.Block("then")
	els := b.Block("else")
	join := b.Block("join")
	b.Br(p, then, els)
	b.SetBlock(then)
	b.Jump(join)
	b.SetBlock(els)
	b.Jump(join)
	b.SetBlock(join)
	b.Ret()
	return b.F
}

func mustBlock(t *testing.T, f *ir.Function, name string) *ir.Block {
	t.Helper()
	b := f.BlockByName(name)
	if b == nil {
		t.Fatalf("no block %q", name)
	}
	return b
}

func TestDominatorsDiamond(t *testing.T) {
	f := buildDiamond()
	dom := Dominators(f)
	entry := f.Entry()
	then := mustBlock(t, f, "then")
	els := mustBlock(t, f, "else")
	join := mustBlock(t, f, "join")

	if dom.IDom(entry) != nil {
		t.Error("entry should have no idom")
	}
	for _, b := range []*ir.Block{then, els, join} {
		if dom.IDom(b) != entry {
			t.Errorf("idom(%s) = %v, want entry", b.Name, dom.IDom(b))
		}
		if !dom.Dominates(entry, b) {
			t.Errorf("entry should dominate %s", b.Name)
		}
	}
	if dom.Dominates(then, join) {
		t.Error("then must not dominate join")
	}
	if !dom.Dominates(join, join) {
		t.Error("blocks dominate themselves")
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	f := buildDiamond()
	pdom, err := PostDominators(f)
	if err != nil {
		t.Fatal(err)
	}
	entry := f.Entry()
	then := mustBlock(t, f, "then")
	join := mustBlock(t, f, "join")

	if pdom.Root() != join {
		t.Fatalf("postdom root = %s, want join", pdom.Root().Name)
	}
	if !pdom.Dominates(join, entry) {
		t.Error("join should post-dominate entry")
	}
	if pdom.Dominates(then, entry) {
		t.Error("then must not post-dominate entry")
	}
	if pdom.IDom(then) != join {
		t.Errorf("ipdom(then) = %v, want join", pdom.IDom(then))
	}
}

func TestControlDepsDiamond(t *testing.T) {
	f := buildDiamond()
	g := MustControlDeps(f, nil)
	entry := f.Entry()
	then := mustBlock(t, f, "then")
	els := mustBlock(t, f, "else")
	join := mustBlock(t, f, "join")

	for _, tt := range []struct {
		b    *ir.Block
		edge int
	}{{then, 0}, {els, 1}} {
		deps := g.Deps(tt.b)
		if len(deps) != 1 || deps[0].Branch != entry || deps[0].Edge != tt.edge {
			t.Errorf("Deps(%s) = %v, want [{entry %d}]", tt.b.Name, deps, tt.edge)
		}
	}
	if len(g.Deps(join)) != 0 {
		t.Errorf("join should have no control deps, got %v", g.Deps(join))
	}
	if len(g.Deps(entry)) != 0 {
		t.Errorf("entry should have no control deps, got %v", g.Deps(entry))
	}
}

func TestControlDepsSelfLoop(t *testing.T) {
	f := buildLoopNest()
	g := MustControlDeps(f, nil)
	inner := mustBlock(t, f, "inner")
	latch := mustBlock(t, f, "latch")

	// The inner-loop branch controls its own re-execution.
	self := false
	for _, d := range g.Deps(inner) {
		self = self || d.Branch == inner
	}
	if !self {
		t.Error("inner loop branch should control itself")
	}
	// And transitively, outer's latch controls inner, and inner itself.
	closure := g.Closures()[inner.ID]
	if !slices.Contains(closure, latch.ID) || !slices.Contains(closure, inner.ID) {
		t.Errorf("closure of inner = %v, want inner and latch", closure)
	}
}

// closure is the transitive control-dependence closure of block b as a
// block-ID set, walked one block at a time: the per-block form Closures
// replaced.
func closure(g *CDG, b *ir.Block) map[int]bool {
	set := map[int]bool{}
	var visit func(*ir.Block)
	visit = func(x *ir.Block) {
		for _, d := range g.Deps(x) {
			if !set[d.Branch.ID] {
				set[d.Branch.ID] = true
				visit(d.Branch)
			}
		}
	}
	visit(b)
	return set
}

// TestClosuresMatchClosure: the all-blocks form lists, for every block,
// exactly the members of its closure set, each once.
func TestClosuresMatchClosure(t *testing.T) {
	for _, f := range []*ir.Function{buildLoopNest(), buildDiamond()} {
		g := MustControlDeps(f, nil)
		all := g.Closures()
		for _, b := range f.Blocks {
			want := closure(g, b)
			if len(all[b.ID]) != len(want) {
				t.Errorf("%s/%s: Closures lists %v, Closure is %v", f.Name, b.Name, all[b.ID], want)
			}
			for _, id := range all[b.ID] {
				if !want[id] {
					t.Errorf("%s/%s: Closures lists block %d, Closure does not hold it", f.Name, b.Name, id)
				}
			}
		}
	}
}

func TestFindLoopsNest(t *testing.T) {
	f := buildLoopNest()
	lf := FindLoops(f, nil)
	if len(lf.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(lf.Loops))
	}
	outer := mustBlock(t, f, "outer")
	inner := mustBlock(t, f, "inner")
	latch := mustBlock(t, f, "latch")
	exit := mustBlock(t, f, "exit")

	il := lf.InnermostLoop(inner)
	if il == nil || il.Header != inner {
		t.Fatalf("innermost loop of inner = %+v, want header=inner", il)
	}
	if il.Depth != 2 {
		t.Errorf("inner loop depth = %d, want 2", il.Depth)
	}
	ol := lf.InnermostLoop(outer)
	if ol == nil || ol.Header != outer || ol.Depth != 1 {
		t.Fatalf("loop of outer = %+v, want header=outer depth=1", ol)
	}
	if il.Parent != ol {
		t.Error("inner loop should nest inside outer loop")
	}
	if !ol.Contains(latch) || !ol.Contains(inner) {
		t.Error("outer loop should contain latch and inner")
	}
	if ol.Contains(exit) {
		t.Error("outer loop must not contain exit")
	}
	if l := lf.InnermostLoop(exit); l != nil {
		t.Errorf("exit is in loop %+v, want none", l)
	}
	tl := lf.TopLevel()
	if len(tl) != 1 || tl[0] != ol {
		t.Errorf("TopLevel = %v, want [outer]", tl)
	}
}

func TestReachability(t *testing.T) {
	f := buildLoopNest()
	r := Reachability(f)
	inner := mustBlock(t, f, "inner")
	outer := mustBlock(t, f, "outer")
	exit := mustBlock(t, f, "exit")

	if !r[inner.ID][inner.ID] {
		t.Error("inner should reach itself via back edge")
	}
	if !r[inner.ID][outer.ID] {
		t.Error("inner should reach outer via outer back edge")
	}
	if r[exit.ID][outer.ID] {
		t.Error("exit must not reach outer")
	}
	if !r[f.Entry().ID][exit.ID] {
		t.Error("entry should reach exit")
	}
}

// naiveDominates is the textbook O(n^2) dataflow definition of dominance,
// used as an oracle for randomized CFGs.
func naiveDominates(f *ir.Function) [][]bool {
	n := len(f.Blocks)
	dom := make([][]bool, n)
	for i := range dom {
		dom[i] = make([]bool, n)
		for j := range dom[i] {
			dom[i][j] = true
		}
	}
	entry := f.Entry().ID
	for j := 0; j < n; j++ {
		dom[entry][j] = j == entry
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if b.ID == entry {
				continue
			}
			newDom := make([]bool, n)
			for j := range newDom {
				newDom[j] = true
			}
			for _, p := range b.Preds {
				for j := 0; j < n; j++ {
					newDom[j] = newDom[j] && dom[p.ID][j]
				}
			}
			newDom[b.ID] = true
			for j := 0; j < n; j++ {
				if newDom[j] != dom[b.ID][j] {
					dom[b.ID][j] = newDom[j]
					changed = true
				}
			}
		}
	}
	// dom[b][a] == true means a dominates b; transpose for convenience.
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, n)
	}
	for b := 0; b < n; b++ {
		for a := 0; a < n; a++ {
			out[a][b] = dom[b][a]
		}
	}
	return out
}

// randomCFG builds a connected CFG with single Ret where every block
// reaches the exit.
func randomCFG(rng *rand.Rand, nBlocks int) *ir.Function {
	b := ir.NewBuilder("rand")
	p := b.Param()
	blocks := []*ir.Block{b.Cur()}
	for i := 1; i < nBlocks; i++ {
		blocks = append(blocks, b.Block("b"+string(rune('0'+i))))
	}
	exit := b.Block("exit")
	for i, blk := range blocks {
		b.SetBlock(blk)
		// Forward edge to a later block (guarantees exit reachability),
		// plus an optional random edge for branches.
		fwd := exit
		if i+1 < len(blocks) && rng.Intn(4) != 0 {
			fwd = blocks[i+1+rng.Intn(len(blocks)-i-1)]
		}
		if rng.Intn(2) == 0 {
			other := blocks[rng.Intn(len(blocks))]
			if other == fwd {
				other = exit
			}
			b.Br(p, fwd, other)
		} else {
			b.Jump(fwd)
		}
	}
	b.SetBlock(exit)
	b.Ret()
	return b.F
}

func TestDominatorsMatchNaiveOracleOnRandomCFGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		f := randomCFG(rng, 3+rng.Intn(10))
		if err := f.Verify(); err != nil {
			// Random CFGs can strand blocks unreachable from entry;
			// those don't satisfy the Verify contract, skip them.
			continue
		}
		dom := Dominators(f)
		oracle := naiveDominates(f)
		for _, a := range f.Blocks {
			for _, c := range f.Blocks {
				got := dom.Dominates(a, c)
				want := oracle[a.ID][c.ID]
				if got != want {
					t.Fatalf("trial %d: Dominates(%s,%s) = %v, oracle %v\n%s",
						trial, a.Name, c.Name, got, want, f)
				}
			}
		}
	}
}

func TestReversePostorderStartsAtEntryAndCoversCFG(t *testing.T) {
	f := buildLoopNest()
	rpo := ReversePostorder(f)
	if rpo[0] != f.Entry() {
		t.Errorf("rpo[0] = %s, want entry", rpo[0].Name)
	}
	if len(rpo) != len(f.Blocks) {
		t.Errorf("rpo covers %d blocks, want %d", len(rpo), len(f.Blocks))
	}
	// Every block before its dominated successors (ignoring back edges):
	pos := map[int]int{}
	for i, b := range rpo {
		pos[b.ID] = i
	}
	dom := Dominators(f)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if dom.Dominates(s, b) {
				continue // back edge
			}
			if pos[s.ID] <= pos[b.ID] {
				t.Errorf("forward edge %s->%s out of order in RPO", b.Name, s.Name)
			}
		}
	}
}

// TestPostDominatorsNoRet: a function with no unique Ret block (one
// ir.Verify would reject) yields an error, not a crash — and ControlDeps
// propagates it.
func TestPostDominatorsNoRet(t *testing.T) {
	f := ir.NewFunction("noret")
	e := f.NewBlock("entry")
	e.Append(f.NewInstr(ir.Jump, ir.NoReg))
	e.SetSuccs(e)
	if _, err := PostDominators(f); err == nil {
		t.Error("PostDominators accepted a function with no Ret")
	}
	if _, err := ControlDeps(f, nil); err == nil {
		t.Error("ControlDeps accepted a function with no Ret")
	}
}

// TestWalkUpStopsAtUncoveredBlock: a block that cannot reach the exit has
// no immediate post-dominator, so walking up the post-dominator tree from
// it visits only the block — and from a block that can, the walk reaches
// the root.
func TestWalkUpStopsAtUncoveredBlock(t *testing.T) {
	b := ir.NewBuilder("spin")
	p := b.Param()
	spin := b.Block("spin")
	exit := b.Block("exit")
	b.Br(p, spin, exit)
	b.SetBlock(spin)
	b.Jump(spin)
	b.SetBlock(exit)
	b.Ret()
	pdom, err := PostDominators(b.F)
	if err != nil {
		t.Fatal(err)
	}
	walk := func(from *ir.Block) []string {
		var seen []string
		pdom.WalkUp(from, func(x *ir.Block) bool {
			seen = append(seen, x.Name)
			return true
		})
		return seen
	}
	if got := walk(spin); !slices.Equal(got, []string{"spin"}) {
		t.Errorf("WalkUp(spin) visited %v, want [spin]", got)
	}
	if got, want := walk(b.F.Entry()), []string{b.F.Entry().Name, "exit"}; !slices.Equal(got, want) {
		t.Errorf("WalkUp(entry) visited %v, want %v", got, want)
	}
}

// TestReachabilityBytes: the sizing formula the server's door applies is
// what Reachability allocates for its relation, one byte a boolean.
func TestReachabilityBytes(t *testing.T) {
	for _, f := range []*ir.Function{buildDiamond(), buildLoopNest()} {
		n := 0
		for _, row := range Reachability(f) {
			n += len(row)
		}
		if got := ReachabilityBytes(f); got != int64(n) {
			t.Errorf("%s: ReachabilityBytes = %d, Reachability allocates %d", f.Name, got, n)
		}
	}
}
