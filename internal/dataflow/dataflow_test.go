package dataflow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func TestRegSetBasics(t *testing.T) {
	s := NewRegSet(100)
	if !s.Empty() {
		t.Error("new set not empty")
	}
	s.Add(3)
	s.Add(77)
	if !s.Has(3) || !s.Has(77) || s.Has(4) {
		t.Error("membership wrong after Add")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	s.Remove(3)
	if s.Has(3) {
		t.Error("Remove failed")
	}
	got := s.Regs()
	if len(got) != 1 || got[0] != 77 {
		t.Errorf("Regs = %v, want [77]", got)
	}
}

// regSetFrom builds a set over registers 1..64 from a bitmask.
func regSetFrom(mask uint64) RegSet {
	s := NewRegSet(64)
	for i := 0; i < 64; i++ {
		if mask&(1<<i) != 0 {
			s.Add(ir.Reg(i + 1))
		}
	}
	return s
}

func TestRegSetAlgebraQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}

	unionCommutes := func(a, b uint64) bool {
		x, y := regSetFrom(a), regSetFrom(b)
		x2, y2 := regSetFrom(a), regSetFrom(b)
		x.UnionWith(y2)
		y.UnionWith(x2)
		return x.Equal(y)
	}
	if err := quick.Check(unionCommutes, cfg); err != nil {
		t.Errorf("union not commutative: %v", err)
	}

	intersectSubset := func(a, b uint64) bool {
		x, y := regSetFrom(a), regSetFrom(b)
		z := x.Clone()
		z.IntersectWith(y)
		for _, r := range z.Regs() {
			if !x.Has(r) || !y.Has(r) {
				return false
			}
		}
		return z.Len() <= x.Len() && z.Len() <= y.Len()
	}
	if err := quick.Check(intersectSubset, cfg); err != nil {
		t.Errorf("intersection not a subset: %v", err)
	}

	unionChangedIffGrew := func(a, b uint64) bool {
		x, y := regSetFrom(a), regSetFrom(b)
		before := x.Len()
		changed := x.UnionWith(y)
		return changed == (x.Len() > before)
	}
	if err := quick.Check(unionChangedIffGrew, cfg); err != nil {
		t.Errorf("UnionWith change reporting wrong: %v", err)
	}
}

// buildCountLoop builds:
//
//	entry: i=0; sum=0 -> loop
//	loop:  sum=sum+i; i=i+1; c = i<n ; br c loop, exit
//	exit:  ret sum
func buildCountLoop() (*ir.Function, map[string]ir.Reg) {
	b := ir.NewBuilder("count")
	n := b.Param()
	loop := b.Block("loop")
	exit := b.Block("exit")

	i := b.F.NewReg()
	sum := b.F.NewReg()
	b.ConstTo(i, 0)
	b.ConstTo(sum, 0)
	b.Jump(loop)

	b.SetBlock(loop)
	b.Op2To(sum, ir.Add, sum, i)
	one := b.Const(1)
	b.Op2To(i, ir.Add, i, one)
	c := b.CmpLT(i, n)
	b.Br(c, loop, exit)

	b.SetBlock(exit)
	b.Ret(sum)
	return b.F, map[string]ir.Reg{"n": n, "i": i, "sum": sum, "c": c}
}

func TestLivenessLoop(t *testing.T) {
	f, regs := buildCountLoop()
	l := ComputeLiveness(f, AllUses)
	loop := f.BlockByName("loop")
	exit := f.BlockByName("exit")

	for _, r := range []string{"n", "i", "sum"} {
		if !l.LiveIn(loop).Has(regs[r]) {
			t.Errorf("%s should be live into loop", r)
		}
	}
	if l.LiveIn(exit).Has(regs["i"]) {
		t.Error("i must be dead at exit")
	}
	if !l.LiveIn(exit).Has(regs["sum"]) {
		t.Error("sum must be live at exit (live-out)")
	}
	if l.LiveIn(f.Entry()).Has(regs["i"]) {
		t.Error("i is defined before use; must not be live at entry")
	}
	if !l.LiveIn(f.Entry()).Has(regs["n"]) {
		t.Error("parameter n must be live at entry")
	}
}

// TestPointSetsBytes: the sizing formula the server's door applies is
// what NewPointSets allocates for its sets.
func TestPointSetsBytes(t *testing.T) {
	f, _ := buildCountLoop()
	wide, err := ir.Parse("func w(r1)\nentry:\n  r700 = add r1, r1\n  br r700 a, b\na:\n  jump b\nb:\n  ret r700\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*ir.Function{f, wide} {
		if got, want := PointSetsBytes(f), int64(8*len(NewPointSets(f).bits)); got != want {
			t.Errorf("%s: PointSetsBytes = %d, NewPointSets allocates %d", f.Name, got, want)
		}
	}
}

// TestReachingDefsBytes: the sizing formula the server's door applies is
// what ComputeReachingDefs allocates for its def sets, with the
// definitions on either side of a word's width.
func TestReachingDefsBytes(t *testing.T) {
	f, _ := buildCountLoop()
	fs := []*ir.Function{f}
	for _, n := range []int{62, 63, 64, 130} {
		var b strings.Builder
		b.WriteString("func chain(r1)\nentry:\n  jump b0\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "b%d:\n  r%d = add r1, r1\n  jump b%d\n", i, 2+i%5, i+1)
		}
		fmt.Fprintf(&b, "b%d:\n  ret r2\n", n)
		chain, err := ir.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, chain)
	}
	for _, f := range fs {
		if got, want := ReachingDefsBytes(f), int64(8*len(ComputeReachingDefs(f).sets.bits)); got != want {
			t.Errorf("%s with %d blocks: ReachingDefsBytes = %d, ComputeReachingDefs allocates %d", f.Name, len(f.Blocks), got, want)
		}
	}
}

func TestBlockLivePositions(t *testing.T) {
	f, regs := buildCountLoop()
	l := ComputeLiveness(f, AllUses)
	loop := f.BlockByName("loop")
	ps := NewPointSets(f)
	l.Points(ps)
	for _, b := range f.Blocks {
		if !ps.At(ps.Pos(b, 0)).Equal(l.LiveIn(b)) || !ps.At(ps.Pos(b, len(b.Instrs))).Equal(l.LiveOut(b)) {
			t.Errorf("%s: first and last positions must be the block's live-in and live-out", b.Name)
		}
	}
	// Before the compare (second to last instr), c is dead; after it
	// (before the Br), c is live.
	brIdx := len(loop.Instrs) - 1
	if ps.Has(ps.Pos(loop, brIdx-1), regs["c"]) {
		t.Error("c live before its definition")
	}
	if !ps.Has(ps.Pos(loop, brIdx), regs["c"]) {
		t.Error("c dead right before the branch that uses it")
	}
	// A refill overwrites every position: the table is reusable.
	ComputeLiveness(f, func(*ir.Instr) []ir.Reg { return nil }).Points(ps)
	if ps.Has(ps.Pos(loop, brIdx), regs["c"]) {
		t.Error("refilled table kept a bit of the previous analysis")
	}
}

func TestThreadAwareLivenessFiltersUses(t *testing.T) {
	f, regs := buildCountLoop()
	// Thread T_t owns nothing: no uses at all -> nothing live.
	none := ComputeLiveness(f, func(*ir.Instr) []ir.Reg { return nil })
	for _, b := range f.Blocks {
		if !none.LiveIn(b).Empty() {
			t.Fatalf("no-uses liveness nonempty in %s", b.Name)
		}
	}
	// T_t owns only the Ret: only sum's range to Ret is live.
	retOnly := ComputeLiveness(f, func(in *ir.Instr) []ir.Reg {
		if in.Op == ir.Ret {
			return in.Uses()
		}
		return nil
	})
	loop := f.BlockByName("loop")
	if !retOnly.LiveOut(loop).Has(regs["sum"]) {
		t.Error("sum should be live w.r.t. Ret-owning thread out of the loop block")
	}
	if retOnly.LiveIn(loop).Has(regs["sum"]) {
		t.Error("sum is redefined at loop top; not live in w.r.t. Ret-owning thread")
	}
	if retOnly.LiveIn(loop).Has(regs["n"]) {
		t.Error("n must not be live w.r.t. Ret-owning thread")
	}
}

func TestReachingDefsChains(t *testing.T) {
	f, regs := buildCountLoop()
	rd := ComputeReachingDefs(f)
	chains := ComputeChainsByUse(rd)

	// The Add that uses i (sum = sum+i) must see two defs of i: the
	// initializing const and the loop increment (loop-carried).
	var addUse UseChain
	found := false
	for _, uc := range chains {
		if uc.Use.Op == ir.Add && uc.Reg == regs["i"] && uc.Use.Dst == regs["sum"] {
			addUse = uc
			found = true
		}
	}
	if !found {
		t.Fatal("no chain found for use of i in sum+=i")
	}
	if len(addUse.Defs) != 2 {
		t.Fatalf("defs reaching i's use = %d, want 2 (init + loop-carried)", len(addUse.Defs))
	}

	// The compare's use of n must chain to the parameter pseudo-def (nil).
	for _, uc := range chains {
		if uc.Reg == regs["n"] {
			if len(uc.Defs) != 1 || uc.Defs[0] != nil {
				t.Errorf("n's defs = %v, want [param pseudo-def]", uc.Defs)
			}
		}
	}
}

// ComputeChainsByUse is a test helper wrapping Chains with AllUses.
func ComputeChainsByUse(rd *ReachingDefs) []UseChain { return rd.Chains(AllUses) }

func TestSafetyLoopLiveOut(t *testing.T) {
	// The Fig. 4 pattern: T_s defines r inside a loop; r stays SAFE for
	// T_s after the loop because no other thread defines it.
	f, regs := buildCountLoop()
	// T_s owns everything except Ret.
	safety := ComputeSafety(f, func(in *ir.Instr) bool { return in.Op != ir.Ret })
	exit := f.BlockByName("exit")
	if !safety.SafeIn(exit).Has(regs["sum"]) {
		t.Error("sum should be SAFE for T_s after the loop")
	}
	if !safety.SafeIn(f.BlockByName("loop")).Has(regs["n"]) {
		t.Error("live-in n should be SAFE throughout")
	}
}

func TestSafetyKilledByOtherThreadDef(t *testing.T) {
	// r defined by T_s then redefined by T_t: after T_t's def, r is no
	// longer SAFE for T_s.
	b := ir.NewBuilder("kill")
	r := b.F.NewReg()
	b.ConstTo(r, 1) // T_s
	mid := b.Block("mid")
	b.Jump(mid)
	b.SetBlock(mid)
	b.ConstTo(r, 2) // T_t (not owned by T_s)
	exit := b.Block("exit")
	b.Jump(exit)
	b.SetBlock(exit)
	b.Ret(r)
	f := b.F

	entryConst := f.Entry().Instrs[0]
	safety := ComputeSafety(f, func(in *ir.Instr) bool { return in == entryConst })
	if !safety.SafeIn(mid).Has(r) {
		t.Error("r should be SAFE before T_t's redefinition")
	}
	if safety.SafeIn(exit).Has(r) {
		t.Error("r must not be SAFE after T_t redefines it")
	}
}

func TestSafetyDiamondIntersection(t *testing.T) {
	// r redefined by T_t on one arm only: not SAFE at the join.
	b := ir.NewBuilder("dia")
	p := b.Param()
	r := b.F.NewReg()
	b.ConstTo(r, 5) // T_s def
	then := b.Block("then")
	els := b.Block("else")
	join := b.Block("join")
	b.Br(p, then, els)
	b.SetBlock(then)
	b.ConstTo(r, 6) // T_t def on one arm
	b.Jump(join)
	b.SetBlock(els)
	b.Jump(join)
	b.SetBlock(join)
	b.Ret(r)
	f := b.F

	tsDef := f.Entry().Instrs[0]
	safety := ComputeSafety(f, func(in *ir.Instr) bool { return in == tsDef })
	if safety.SafeIn(join).Has(r) {
		t.Error("r must not be SAFE at join (stale on one path)")
	}
	if !safety.SafeIn(els).Has(r) {
		t.Error("r should be SAFE on the untouched arm")
	}
}

func TestBlockSafePositions(t *testing.T) {
	f, regs := buildCountLoop()
	safety := ComputeSafety(f, func(in *ir.Instr) bool { return true })
	loop := f.BlockByName("loop")
	ps := NewPointSets(f)
	safety.Points(ps)
	for _, b := range f.Blocks {
		if !ps.At(ps.Pos(b, 0)).Equal(safety.SafeIn(b)) || !ps.At(ps.Pos(b, len(b.Instrs))).Equal(safety.SafeOut(b)) {
			t.Errorf("%s: first and last positions must be the block's SAFE-in and SAFE-out", b.Name)
		}
	}
	// Before the compare c may or may not be safe (undefined on the entry
	// path, defined by T_s on the back edge); after it, it must be.
	cmpIdx := len(loop.Instrs) - 2
	if !ps.Has(ps.Pos(loop, cmpIdx+1), regs["c"]) {
		t.Error("c must be SAFE right after its definition")
	}
}
