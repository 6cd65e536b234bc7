package oracle

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/randprog"
)

// TestCheckKnownGoodSeeds is the seeded smoke pass: the full differential
// matrix must be clean on generated programs. The native fuzz target
// (FuzzMTEquivalence) explores beyond these seeds.
func TestCheckKnownGoodSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 42}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		c := Generate(seed)
		rep, err := Check(c, Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("seed %d: %v\nreproducer:\n%s", seed, err, FormatCase(c))
		}
		if rep.Runs == 0 || rep.Programs == 0 {
			t.Fatalf("seed %d: oracle ran nothing (%d runs, %d programs)", seed, rep.Runs, rep.Programs)
		}
	}
}

// tinyCase builds a deterministic two-thread case with one cross-thread
// register dependence, returning the compiled program for corruption
// tests.
func tinyCase(t *testing.T) (*Case, *Golden, *mtcg.Program) {
	t.Helper()
	b := ir.NewBuilder("tiny")
	p1 := b.Param()
	c5 := b.Const(5)
	sum := b.Add(p1, c5)
	prod := b.Mul(sum, p1)
	b.Ret(sum, prod)

	c := &Case{Name: "tiny", F: b.F, Args: []int64{7}, Mem: []int64{}}
	g, err := RunGolden(c, 1000)
	if err != nil {
		t.Fatal(err)
	}

	assign := map[*ir.Instr]int{}
	b.F.Instrs(func(in *ir.Instr) {
		switch in.Op {
		case ir.Jump, ir.Nop:
		case ir.Mul, ir.Ret:
			assign[in] = 1
		default:
			assign[in] = 0
		}
	})
	plan := mtcg.NaivePlan(b.F, pdg.Build(b.F, nil), assign, 2)
	prog, err := mtcg.Generate(plan)
	if err != nil {
		t.Fatal(err)
	}
	queue.Allocate(prog)
	return c, g, prog
}

// TestCheckProgramAcceptsCorrectCode pins the baseline: the uncorrupted
// tiny program is clean.
func TestCheckProgramAcceptsCorrectCode(t *testing.T) {
	c, g, prog := tinyCase(t)
	rep := &Report{}
	CheckProgram(rep, c.Name, g, "tiny", prog, c.Args, c.Mem, Options{})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckProgramDetectsWrongValue corrupts a constant in one thread:
// every interpreter schedule and the simulator must report the wrong
// live-outs.
func TestCheckProgramDetectsWrongValue(t *testing.T) {
	c, g, prog := tinyCase(t)
	corrupted := false
	prog.Threads[0].Instrs(func(in *ir.Instr) {
		if in.Op == ir.Const && in.Imm == 5 {
			in.Imm = 6
			corrupted = true
		}
	})
	if !corrupted {
		t.Fatal("no constant found to corrupt")
	}
	rep := &Report{}
	CheckProgram(rep, c.Name, g, "tiny", prog, c.Args, c.Mem, Options{})
	if !rep.Has(LiveOutMismatch) {
		t.Fatalf("corrupted constant not detected: %+v", rep.Failures)
	}
	if !rep.Has(SimDivergence) {
		t.Fatalf("simulator did not flag the corrupted constant: %+v", rep.Failures)
	}
}

// TestCheckProgramDetectsMissingProduce deletes a produce instruction:
// the consumer must block forever and the oracle must classify it as a
// deadlock, quoting the blocked-thread diagnostic.
func TestCheckProgramDetectsMissingProduce(t *testing.T) {
	c, g, prog := tinyCase(t)
	deleted := false
	for _, blk := range prog.Threads[0].Blocks {
		for i, in := range blk.Instrs {
			if in.Op == ir.Produce {
				blk.Instrs = append(blk.Instrs[:i], blk.Instrs[i+1:]...)
				deleted = true
				break
			}
		}
		if deleted {
			break
		}
	}
	if !deleted {
		t.Fatal("no produce found to delete")
	}
	rep := &Report{}
	CheckProgram(rep, c.Name, g, "tiny", prog, c.Args, c.Mem, Options{})
	if !rep.Has(Deadlock) {
		t.Fatalf("missing produce not detected as deadlock: %+v", rep.Failures)
	}
	for _, f := range rep.Failures {
		if f.Kind == Deadlock && !strings.Contains(f.Detail, "blocked at") {
			t.Fatalf("deadlock report lacks the blocked-thread diagnostic: %q", f.Detail)
		}
	}
}

// TestCheckProgramDetectsQueueImbalance injects a produce whose value is
// never consumed: queue balance must fail even though live-outs remain
// correct.
func TestCheckProgramDetectsQueueImbalance(t *testing.T) {
	c, g, prog := tinyCase(t)
	q := prog.NumQueues
	extra := prog.Threads[0].NewInstr(ir.ProduceSync, ir.NoReg)
	extra.Queue = q
	prog.Threads[0].Entry().InsertAt(0, extra)
	prog.NumQueues = q + 1
	prog.Threads[0].NumQueues = q + 1

	rep := &Report{}
	CheckProgram(rep, c.Name, g, "tiny", prog, c.Args, c.Mem, Options{})
	if !rep.Has(InvariantViolation) {
		t.Fatalf("unconsumed produce not detected: %+v", rep.Failures)
	}
	if rep.Has(LiveOutMismatch) || rep.Has(MemMismatch) {
		t.Fatalf("imbalance corrupted outputs unexpectedly: %+v", rep.Failures)
	}
}

// TestCheckProgramDetectsMiscountedBlock points every block of one thread
// at the original entry block, as if MTCG had lost track of what each
// block copies: the runs are untouched and clean, and only the counted
// communication check can tell.
func TestCheckProgramDetectsMiscountedBlock(t *testing.T) {
	for seed := int64(1); seed < 20; seed++ {
		c := Generate(seed)
		g, err := RunGolden(c, 1_000_000)
		if err != nil {
			continue
		}
		assign := randprog.RandomPartition(rand.New(rand.NewSource(seed)), c.F, 2)
		prog, err := mtcg.Generate(mtcg.NaivePlan(c.F, pdg.Build(c.F, c.Objects), assign, 2))
		if err != nil {
			t.Fatal(err)
		}
		queue.Allocate(prog)
		rep := &Report{}
		CheckProgram(rep, c.Name, g, "random", prog, c.Args, c.Mem, Options{SkipSim: true})
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		counted := prog.Counts(g.Profile)
		for i := range prog.Origins[0] {
			prog.Origins[0][i] = c.F.Entry()
		}
		if prog.Counts(g.Profile) == counted {
			continue // every block of thread 0 runs once: nothing to miscount
		}
		rep = &Report{}
		CheckProgram(rep, c.Name, g, "random", prog, c.Args, c.Mem, Options{SkipSim: true})
		if len(rep.Failures) == 0 {
			t.Fatalf("%s: miscounted blocks not detected", c.Name)
		}
		for _, f := range rep.Failures {
			if f.Kind != InvariantViolation || !strings.Contains(f.Detail, "counted communication") {
				t.Fatalf("%s: unexpected failure %s", c.Name, f)
			}
		}
		return
	}
	t.Fatal("no seed gave a thread whose blocks run other than once")
}

// TestShrinkMinimizes shrinks a generated program against a synthetic
// property ("still contains a multiply") and must reduce it to a
// near-minimal function.
func TestShrinkMinimizes(t *testing.T) {
	hasMul := func(c *Case) bool {
		found := false
		c.F.Instrs(func(in *ir.Instr) {
			if in.Op == ir.Mul {
				found = true
			}
		})
		return found
	}
	var c *Case
	for seed := int64(1); seed < 50; seed++ {
		if cand := Generate(seed); hasMul(cand) && cand.F.NumInstrs() >= 20 {
			c = cand
			break
		}
	}
	if c == nil {
		t.Fatal("no seed produced a program with a multiply")
	}
	min, err := Shrink(c, hasMul, 100_000)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if err := min.F.Verify(); err != nil {
		t.Fatalf("shrunk program invalid: %v\n%s", err, min.F)
	}
	if !hasMul(min) {
		t.Fatalf("shrink lost the property:\n%s", min.F)
	}
	if got, orig := min.F.NumInstrs(), c.F.NumInstrs(); got >= orig {
		t.Fatalf("no reduction: %d instrs, started with %d", got, orig)
	}
	if got := min.F.NumInstrs(); got > 4 {
		t.Errorf("shrink left %d instructions, want <= 4 (mul + ret and little else):\n%s", got, min.F)
	}
	if got := len(min.F.Blocks); got > 2 {
		t.Errorf("shrink left %d blocks, want <= 2:\n%s", got, min.F)
	}
}

// TestShrinkPreservesOracleFailure shrinks a case against the oracle
// property itself, seeded with a corrupted-compilation detector: a
// program whose golden run breaks under shrinking must be rejected.
func TestShrinkStillFailsRejectsBrokenGolden(t *testing.T) {
	// A case whose function fails verification would panic the clone; a
	// case that exceeds the step budget must simply not satisfy the
	// property.
	b := ir.NewBuilder("spin")
	p := b.Param()
	loop := b.Block("loop")
	b.Jump(loop)
	b.SetBlock(loop)
	b.Jump(loop)
	_ = p
	c := &Case{Name: "spin", F: b.F, Args: []int64{0}, Mem: []int64{}}
	if StillFails(Options{MaxSteps: 1000}, "")(c) {
		t.Fatal("non-terminating case satisfied the failure property")
	}
}

// TestFormatParseRoundTrip checks the corpus format reconstructs a case
// exactly.
func TestFormatParseRoundTrip(t *testing.T) {
	c := Generate(7)
	text := FormatCase(c)
	got, err := ParseCase(text)
	if err != nil {
		t.Fatalf("ParseCase: %v\n%s", err, text)
	}
	if got.Name != c.Name || got.Seed != c.Seed {
		t.Errorf("identity lost: %q/%d, want %q/%d", got.Name, got.Seed, c.Name, c.Seed)
	}
	if got.F.String() != c.F.String() {
		t.Errorf("function changed:\n%s\nvs\n%s", got.F, c.F)
	}
	if len(got.Args) != len(c.Args) || len(got.Mem) != len(c.Mem) ||
		len(got.Objects) != len(c.Objects) {
		t.Fatalf("shape changed: %d args %d mem %d objects", len(got.Args), len(got.Mem), len(got.Objects))
	}
	for i := range c.Args {
		if got.Args[i] != c.Args[i] {
			t.Errorf("arg %d = %d, want %d", i, got.Args[i], c.Args[i])
		}
	}
	for i := range c.Mem {
		if got.Mem[i] != c.Mem[i] {
			t.Errorf("mem %d = %d, want %d", i, got.Mem[i], c.Mem[i])
		}
	}
	if got.Objects[0] != c.Objects[0] {
		t.Errorf("object 0 = %+v, want %+v", got.Objects[0], c.Objects[0])
	}
}

// TestCorpusRegressions re-runs every checked-in reproducer through the
// full oracle: once a bug is fixed, its shrunk case stays fixed.
func TestCorpusRegressions(t *testing.T) {
	cases, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("corpus is empty; testdata/corpus must hold at least one reproducer")
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			rep, err := Check(c, Options{Seed: c.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckDeterministicRepeat pins corpus-level determinism end to end:
// the optimized interpreter and simulator hot paths (ring queues, fast
// scheduler loop, memoized stall cycles) must not introduce any run-order
// or timing dependence, so two full oracle passes over the same corpus
// under the same seed render byte-identical reports.
func TestCheckDeterministicRepeat(t *testing.T) {
	cases, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		var b strings.Builder
		for _, c := range cases {
			rep, err := Check(c, Options{Seed: c.Seed})
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			fmt.Fprintf(&b, "%s: programs=%d runs=%d injected=%d sched=%q\n",
				c.Name, rep.Programs, rep.Runs, rep.Injected, rep.FaultSchedule)
			for _, f := range rep.Failures {
				fmt.Fprintf(&b, "  %s\n", f)
			}
		}
		return b.String()
	}
	first := render()
	for trial := 1; trial < 3; trial++ {
		if got := render(); got != first {
			t.Fatalf("oracle corpus report differs on repeat %d:\n--- first ---\n%s--- repeat ---\n%s",
				trial, first, got)
		}
	}
}
