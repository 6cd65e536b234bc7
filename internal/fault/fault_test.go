package fault

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
)

func mustParse(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

// handProgram wraps hand-written threads as MTCG output whose every block
// copies the entry block of a one-block original, which the empty profile
// executes once — or, with dead, a block of the original no run reaches.
func handProgram(t *testing.T, dead bool, threads ...*ir.Function) (*mtcg.Program, *ir.Profile) {
	t.Helper()
	orig := mustParse(t, "func o()\nentry:\n\tjump exit\nunreached:\n\tjump exit\nexit:\n\tret\n")
	from := orig.Entry()
	if dead {
		from = orig.BlockByName("unreached")
	}
	prog := &mtcg.Program{Orig: orig, Threads: threads, NumThreads: len(threads)}
	for _, f := range threads {
		if f.NumQueues > prog.NumQueues {
			prog.NumQueues = f.NumQueues
		}
		var o []*ir.Block
		for range f.Blocks {
			o = append(o, from)
		}
		prog.Origins = append(prog.Origins, o)
	}
	return prog, ir.NewProfile(orig)
}

// testThreads is a producer and a consumer thread talking over queues
// queues, each queue once per data produce and once per sync token.
func testThreads(t *testing.T, queues int) []*ir.Function {
	t.Helper()
	var prod, cons strings.Builder
	prod.WriteString("func t0(r1)\nentry:\n")
	cons.WriteString("func t1(r1)\nentry:\n")
	for q := 0; q < queues; q++ {
		fmt.Fprintf(&prod, "\tproduce [q%d] = r1\n\tproduce.sync [q%d]\n", q, q)
		fmt.Fprintf(&cons, "\tr2 = consume [q%d]\n\tconsume.sync [q%d]\n", q, q)
	}
	prod.WriteString("\tret\n")
	cons.WriteString("\tret r2\n")
	return []*ir.Function{mustParse(t, prod.String()), mustParse(t, cons.String())}
}

func mutate(t *testing.T, prog *mtcg.Program, prof *ir.Profile, spec Spec) (*mtcg.Program, string) {
	t.Helper()
	mut, desc, ok, err := Mutate(prog, prof, spec)
	if err != nil || !ok {
		t.Fatalf("%s: ok=%v err=%v", spec, ok, err)
	}
	return mut, desc
}

// count returns how many instructions of op the program's threads hold.
func count(prog *mtcg.Program, op ir.Op) int {
	n := 0
	for _, f := range prog.Threads {
		f.Instrs(func(in *ir.Instr) {
			if in.Op == op {
				n++
			}
		})
	}
	return n
}

func text(prog *mtcg.Program) string {
	var b strings.Builder
	for _, f := range prog.Threads {
		b.WriteString(f.String())
	}
	return b.String()
}

func TestScheduleDeterminism(t *testing.T) {
	prog, prof := handProgram(t, false, testThreads(t, 3)...)
	for _, cls := range []Class{DropProduce, DupProduce, CorruptValue, SwapQueue, MisplacePlan} {
		spec := Spec{Class: cls, Seed: 42}
		a, da := mutate(t, prog, prof, spec)
		b, db := mutate(t, prog, prof, spec)
		if da != db || text(a) != text(b) {
			t.Errorf("%s: same seed, different mutants:\n%s\n%s\nvs\n%s\n%s", cls, da, text(a), db, text(b))
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	prog, prof := handProgram(t, false, testThreads(t, 3)...)
	seen := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		_, desc := mutate(t, prog, prof, Spec{Class: DropProduce, Seed: seed})
		seen[desc] = true
	}
	if len(seen) < 2 {
		t.Errorf("seeds 1..8 all dropped the same produce: %v", seen)
	}
}

func TestDropAndDupFire(t *testing.T) {
	prog, prof := handProgram(t, false, testThreads(t, 2)...)
	before := count(prog, ir.Produce) + count(prog, ir.ProduceSync)
	for _, tc := range []struct {
		cls  Class
		diff int
	}{{DropProduce, -1}, {DupProduce, +1}} {
		mut, desc := mutate(t, prog, prof, Spec{Class: tc.cls, Seed: 7})
		if got := count(mut, ir.Produce) + count(mut, ir.ProduceSync); got != before+tc.diff {
			t.Errorf("%s (%s): %d produces, want %d", tc.cls, desc, got, before+tc.diff)
		}
		for _, f := range mut.Threads {
			if err := f.Verify(); err != nil {
				t.Errorf("%s: mutant does not verify: %v", tc.cls, err)
			}
		}
	}
}

func TestCorruptOnlyData(t *testing.T) {
	syncOnly := []*ir.Function{
		mustParse(t, "func t0()\nentry:\n\tproduce.sync [q0]\n\tret\n"),
		mustParse(t, "func t1()\nentry:\n\tconsume.sync [q0]\n\tret\n"),
	}
	prog, prof := handProgram(t, false, syncOnly...)
	if _, _, ok, err := Mutate(prog, prof, Spec{Class: CorruptValue, Seed: 3}); ok || err != nil {
		t.Errorf("corrupt-value edited a sync-only program: ok=%v err=%v", ok, err)
	}
	prog, prof = handProgram(t, false, testThreads(t, 2)...)
	mut, desc := mutate(t, prog, prof, Spec{Class: CorruptValue, Seed: 3})
	if count(mut, ir.Xor) != 1 || count(mut, ir.ProduceSync) != count(prog, ir.ProduceSync) {
		t.Errorf("%s: want one xor feeding a data produce:\n%s", desc, text(mut))
	}
	mut.Threads[0].Instrs(func(in *ir.Instr) {
		if in.Op == ir.Xor {
			if next := in.Block().Instrs[in.Index()+1]; next.Op != ir.Produce || next.Srcs[0] != in.Dst {
				t.Errorf("%s: the xor feeds %v, not the produce after it", desc, next)
			}
		}
	})
}

func TestSwapNeedsTwoQueues(t *testing.T) {
	prog, prof := handProgram(t, false, testThreads(t, 1)...)
	if _, _, ok, err := Mutate(prog, prof, Spec{Class: SwapQueue, Seed: 5}); ok || err != nil {
		t.Errorf("swap-queue edited a single-queue program: ok=%v err=%v", ok, err)
	}
	prog, prof = handProgram(t, false, testThreads(t, 4)...)
	mut, desc := mutate(t, prog, prof, Spec{Class: SwapQueue, Seed: 5})
	moved := 0
	for i, f := range mut.Threads {
		orig := prog.Threads[i].Blocks[0].Instrs
		for j, in := range f.Blocks[0].Instrs {
			if in.Queue != orig[j].Queue {
				moved++
				if in.Queue < 0 || in.Queue >= 4 || orig[j].Op != ir.Produce && orig[j].Op != ir.ProduceSync {
					t.Errorf("%s: rewired %v", desc, in)
				}
			}
		}
	}
	if moved != 1 {
		t.Errorf("%s: %d instructions changed queue, want 1", desc, moved)
	}
}

func TestQueueCapShrink(t *testing.T) {
	shrink := Spec{Class: ShrinkQueue, Seed: 1}
	if got := shrink.QueueCap(32); got != 16 {
		t.Errorf("QueueCap(32) = %d, want 16", got)
	}
	if got := shrink.QueueCap(1); got != 1 {
		t.Errorf("QueueCap(1) = %d, want 1 (never below one)", got)
	}
	if desc, ok := shrink.Perturbs(2, []int{1, 32}); !ok || desc != "queue capacity 32 -> 16" {
		t.Errorf("Perturbs at caps {1, 32} = %q, %v", desc, ok)
	}
	if _, ok := shrink.Perturbs(2, []int{1}); ok {
		t.Error("a shrink at depth 1 reported a change")
	}
	if (Spec{Class: DropProduce, Seed: 1}).QueueCap(32) != 32 {
		t.Error("non-shrink class changed the queue capacity")
	}
}

// offered records the runnable sets a policy is offered.
type offered struct {
	interp.Scheduler
	sets [][]int
}

func (o *offered) Pick(runnable []int, lastRan []int64, step int64) int {
	o.sets = append(o.sets, append([]int(nil), runnable...))
	return o.Scheduler.Pick(runnable, lastRan, step)
}

func TestStallExpires(t *testing.T) {
	spec := Spec{Class: StallThread, Seed: 9}
	st := spec.stall(3)
	inner := &offered{Scheduler: interp.RoundRobin()}
	s := spec.Sched(inner, 3)
	lastRan := make([]int64, 3)
	for pick := 0; pick < 10_000; pick++ {
		s.Pick([]int{0, 1, 2}, lastRan, int64(pick))
	}
	// A deferred pick offers the inner policy every thread but the target.
	deferred, lastDeferred := 0, -1
	for i, set := range inner.sets {
		if len(set) != 3 {
			deferred++
			lastDeferred = i
			for _, ti := range set {
				if ti == st.target {
					t.Fatalf("pick %d offered the stalled thread %d: %v", i, st.target, set)
				}
			}
		}
	}
	if deferred == 0 {
		t.Fatal("stall-thread never deferred its thread")
	}
	if int64(deferred) != st.left || int64(lastDeferred-deferred+1) != st.from-1 {
		t.Errorf("deferred %d picks ending at pick %d, want the seeded window of %d from pick %d",
			deferred, lastDeferred+1, st.left, st.from)
	}
	// The target is picked when it is the only runnable thread.
	if got := s.Pick([]int{st.target}, lastRan, 0); got != st.target {
		t.Errorf("sole runnable thread %d not picked: %d", st.target, got)
	}
	if s.Name() == "round-robin" {
		t.Error("the wrapped policy does not say it stalls")
	}
	if spec.Sched(interp.RoundRobin(), 1).Name() != "round-robin" {
		t.Error("a one-thread program's scheduler was wrapped")
	}
}

func TestZeroSpecIsTransparent(t *testing.T) {
	var spec Spec
	prog, prof := handProgram(t, false, testThreads(t, 2)...)
	if _, _, ok, err := Mutate(prog, prof, spec); ok || err != nil {
		t.Errorf("zero spec mutated: ok=%v err=%v", ok, err)
	}
	if spec.QueueCap(32) != 32 {
		t.Error("zero spec changed the queue capacity")
	}
	inner := interp.RoundRobin()
	if spec.Sched(inner, 2) != inner {
		t.Error("zero spec wrapped the scheduler")
	}
	if _, ok := spec.Perturbs(2, []int{32}); ok {
		t.Error("zero spec reports a change")
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(string(c))
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c, got, err)
		}
	}
	if _, err := ParseClass("nope"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
	if !StallThread.Benign() || !ShrinkQueue.Benign() || DropProduce.Benign() {
		t.Error("Benign classification wrong")
	}
}

func TestMisplanDeterministicAndNonMutating(t *testing.T) {
	prog, prof := handProgram(t, false, testThreads(t, 3)...)
	before := text(prog)
	m1, d1 := mutate(t, prog, prof, Spec{Class: MisplacePlan, Seed: 11})
	m2, d2 := mutate(t, prog, prof, Spec{Class: MisplacePlan, Seed: 11})
	if d1 != d2 || text(m1) != text(m2) {
		t.Errorf("same seed gave different mutations: %q vs %q", d1, d2)
	}
	if text(prog) != before || prog.Origins == nil {
		t.Error("the input program was changed")
	}
	if m1.Origins != nil {
		t.Error("the mutant records Origins")
	}
	// The mutation changed exactly one consume's queue.
	if m1.Threads[0].String() != prog.Threads[0].String() || m1.Threads[1].String() == prog.Threads[1].String() {
		t.Errorf("want only the consumer changed (%s)", d1)
	}
}

func TestMisplanSingleQueueGoesOutOfRange(t *testing.T) {
	prog, prof := handProgram(t, false, testThreads(t, 1)...)
	m, desc := mutate(t, prog, prof, Spec{Class: MisplacePlan, Seed: 5})
	if !strings.Contains(desc, "q1") {
		t.Errorf("single-queue misplan should rewire out of range, got %q", desc)
	}
	found := false
	m.Threads[1].Instrs(func(in *ir.Instr) {
		if in.Op.IsComm() && in.Queue == 1 {
			found = true
		}
	})
	if !found {
		t.Error("mutated consume with out-of-range queue not found")
	}
}

func TestMisplanNoComm(t *testing.T) {
	prog, prof := handProgram(t, false, mustParse(t, "func t0(r1)\nentry:\n\tret\n"))
	if _, _, ok, err := Mutate(prog, prof, Spec{Class: MisplacePlan, Seed: 1}); ok || err != nil {
		t.Errorf("Mutate on a comm-free program: ok=%v err=%v, want vacuous", ok, err)
	}
}

// TestMutateOnlyExecutedSites: a site is drawn only from blocks whose
// origin executed, and a program without Origins (a mutant, a hand-written
// program) has none known to execute.
func TestMutateOnlyExecutedSites(t *testing.T) {
	prog, prof := handProgram(t, true, testThreads(t, 2)...)
	for _, cls := range []Class{DropProduce, DupProduce, CorruptValue, SwapQueue, MisplacePlan} {
		if _, _, ok, err := Mutate(prog, prof, Spec{Class: cls, Seed: 1}); ok || err != nil {
			t.Errorf("%s edited a block that never executed: ok=%v err=%v", cls, ok, err)
		}
	}
	prog, prof = handProgram(t, false, testThreads(t, 2)...)
	mut, _ := mutate(t, prog, prof, Spec{Class: DupProduce, Seed: 1})
	if _, _, ok, _ := Mutate(mut, prof, Spec{Class: DupProduce, Seed: 1}); ok {
		t.Error("a mutant without Origins was mutated again")
	}
}
