package fault

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// drive presents n produce opportunities to an injector and returns the
// observed (queue, value, multiplicity) decisions.
type decision struct {
	q     int
	v     int64
	times int
}

func drive(inj *Injector, n, numQueues int, data bool) []decision {
	var ds []decision
	for k := 0; k < n; k++ {
		q, v, times := inj.Produce(0, k%numQueues, int64(100+k), numQueues, data)
		ds = append(ds, decision{q, v, times})
	}
	return ds
}

func TestScheduleDeterminism(t *testing.T) {
	for _, cls := range RuntimeClasses() {
		spec := Spec{Class: cls, Seed: 42}
		a, b := spec.New(), spec.New()
		da := drive(a, 2000, 3, true)
		db := drive(b, 2000, 3, true)
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("%s: decision %d differs: %+v vs %+v", cls, i, da[i], db[i])
			}
		}
		if a.Schedule() != b.Schedule() {
			t.Errorf("%s: schedules differ:\n%s\nvs\n%s", cls, a.Schedule(), b.Schedule())
		}
		if a.Count() != b.Count() {
			t.Errorf("%s: counts differ: %d vs %d", cls, a.Count(), b.Count())
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a := Spec{Class: DropProduce, Seed: 1}.New()
	b := Spec{Class: DropProduce, Seed: 2}.New()
	da, db := drive(a, 2000, 2, true), drive(b, 2000, 2, true)
	same := true
	for i := range da {
		if da[i] != db[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical drop schedules")
	}
}

func TestDropAndDupFire(t *testing.T) {
	for _, tc := range []struct {
		cls  Class
		mult int
	}{{DropProduce, 0}, {DupProduce, 2}} {
		inj := Spec{Class: tc.cls, Seed: 7}.New()
		ds := drive(inj, 2000, 2, true)
		fired := 0
		for _, d := range ds {
			if d.times == tc.mult {
				fired++
			} else if d.times != 1 {
				t.Fatalf("%s: unexpected multiplicity %d", tc.cls, d.times)
			}
		}
		if fired == 0 {
			t.Errorf("%s: never fired in 2000 opportunities", tc.cls)
		}
		if int64(fired) != inj.Count() {
			t.Errorf("%s: fired %d but Count() = %d", tc.cls, fired, inj.Count())
		}
		// Firing pattern is offset + k*period: at most 1 + 1999/97 ≈ 21.
		if fired > 21 {
			t.Errorf("%s: fired %d times — period too dense", tc.cls, fired)
		}
	}
}

func TestCorruptOnlyData(t *testing.T) {
	inj := Spec{Class: CorruptValue, Seed: 3}.New()
	for k, d := range drive(inj, 2000, 2, false) {
		if d.times != 1 || d.v != int64(100+k) {
			t.Fatalf("sync token %d mutated: %+v", k, d)
		}
	}
	if inj.Count() != 0 {
		t.Errorf("corrupt-value fired %d times on sync tokens", inj.Count())
	}
	inj2 := Spec{Class: CorruptValue, Seed: 3}.New()
	corrupted := 0
	for k := 0; k < 2000; k++ {
		_, v, times := inj2.Produce(0, 0, 1000, 2, true)
		if times != 1 {
			t.Fatalf("corrupt changed multiplicity to %d", times)
		}
		if v != 1000 {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Error("corrupt-value never corrupted a data value")
	}
	if int64(corrupted) != inj2.Count() {
		t.Errorf("corrupted %d values but Count() = %d", corrupted, inj2.Count())
	}
}

func TestSwapNeedsTwoQueues(t *testing.T) {
	inj := Spec{Class: SwapQueue, Seed: 5}.New()
	for _, d := range drive(inj, 2000, 1, true) {
		if d.q != 0 {
			t.Fatalf("swap redirected with a single queue: %+v", d)
		}
	}
	if inj.Count() != 0 {
		t.Errorf("swap fired %d times with nowhere to misdirect", inj.Count())
	}
	inj2 := Spec{Class: SwapQueue, Seed: 5}.New()
	swapped := 0
	for k := 0; k < 2000; k++ {
		q, _, _ := inj2.Produce(0, 1, 0, 4, true)
		if q != 1 {
			swapped++
			if q < 0 || q >= 4 {
				t.Fatalf("swap target q%d out of range", q)
			}
		}
	}
	if swapped == 0 {
		t.Error("swap-queue never misdirected with 4 queues")
	}
}

func TestQueueCapShrink(t *testing.T) {
	inj := Spec{Class: ShrinkQueue, Seed: 1}.New()
	if got := inj.QueueCap(32); got != 16 {
		t.Errorf("QueueCap(32) = %d, want 16", got)
	}
	if inj.Count() != 1 {
		t.Errorf("shrink recorded %d events, want 1", inj.Count())
	}
	one := Spec{Class: ShrinkQueue, Seed: 1}.New()
	if got := one.QueueCap(1); got != 1 {
		t.Errorf("QueueCap(1) = %d, want 1 (never below one)", got)
	}
	if one.Count() != 0 {
		t.Error("vacuous shrink (cap 1) still counted as injected")
	}
	noop := Spec{Class: DropProduce, Seed: 1}.New()
	if noop.QueueCap(32) != 32 {
		t.Error("non-shrink class changed the queue capacity")
	}
}

func TestStallExpires(t *testing.T) {
	inj := Spec{Class: StallThread, Seed: 9}.New()
	frozen := 0
	for turn := 0; turn < 10_000; turn++ {
		for ti := 0; ti < 3; ti++ {
			if inj.Stall(ti, 3) {
				frozen++
			}
		}
	}
	if frozen == 0 {
		t.Fatal("stall-thread never froze a thread")
	}
	if frozen > 64+193 {
		t.Errorf("frozen %d turns, want at most the seeded window (<= 257)", frozen)
	}
	// The window is spent: no further freezes, ever.
	for turn := 0; turn < 1000; turn++ {
		for ti := 0; ti < 3; ti++ {
			if inj.Stall(ti, 3) {
				t.Fatal("stall froze again after its window expired")
			}
		}
	}
	if inj.Count() != int64(frozen) {
		t.Errorf("froze %d turns but Count() = %d", frozen, inj.Count())
	}
}

func TestNilInjectorIsTransparent(t *testing.T) {
	var inj *Injector
	if q, v, times := inj.Produce(0, 3, 77, 5, true); q != 3 || v != 77 || times != 1 {
		t.Errorf("nil injector mutated a produce: q=%d v=%d times=%d", q, v, times)
	}
	if inj.Stall(0, 2) {
		t.Error("nil injector stalled a thread")
	}
	if inj.QueueCap(32) != 32 {
		t.Error("nil injector changed the queue capacity")
	}
	if inj.Count() != 0 {
		t.Error("nil injector reports injections")
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

func mustParse(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

// testThreads is a producer and a consumer thread talking over queues
// queues.
func testThreads(t *testing.T, queues int) []*ir.Function {
	t.Helper()
	var prod, cons strings.Builder
	prod.WriteString("func t0(r1)\nentry:\n")
	cons.WriteString("func t1(r1)\nentry:\n")
	for q := 0; q < queues; q++ {
		prod.WriteString("\tproduce [q" + string(rune('0'+q)) + "] = r1\n")
		cons.WriteString("\tr2 = consume [q" + string(rune('0'+q)) + "]\n")
	}
	prod.WriteString("\tret\n")
	cons.WriteString("\tret\n")
	return []*ir.Function{mustParse(t, prod.String()), mustParse(t, cons.String())}
}

func TestMisplanDeterministicAndNonMutating(t *testing.T) {
	prog := testThreads(t, 3)
	m1, d1, ok1, err1 := Misplan(prog, 3, 11)
	m2, d2, ok2, err2 := Misplan(prog, 3, 11)
	if err1 != nil || err2 != nil || !ok1 || !ok2 {
		t.Fatalf("Misplan failed: %v %v ok=%v,%v", err1, err2, ok1, ok2)
	}
	if d1 != d2 {
		t.Errorf("same seed gave different mutations: %q vs %q", d1, d2)
	}
	if m1[1].String() != m2[1].String() {
		t.Error("same seed gave different mutated programs")
	}
	// The original is untouched: every consume still reads its own queue.
	q := 0
	prog[1].Instrs(func(in *ir.Instr) {
		if in.Op == ir.Consume {
			if in.Queue != q {
				t.Errorf("original program mutated: consume %d reads q%d", q, in.Queue)
			}
			q++
		}
	})
	// The mutation changed exactly one consume's queue.
	if m1[1].String() == prog[1].String() {
		t.Error("mutated consumer is identical to the original")
	}
}

func TestMisplanSingleQueueGoesOutOfRange(t *testing.T) {
	m, desc, ok, err := Misplan(testThreads(t, 1), 1, 5)
	if err != nil || !ok {
		t.Fatalf("Misplan: %v ok=%v", err, ok)
	}
	if !strings.Contains(desc, "q1") {
		t.Errorf("single-queue misplan should rewire out of range, got %q", desc)
	}
	found := false
	m[1].Instrs(func(in *ir.Instr) {
		if in.Op == ir.Consume && in.Queue == 1 {
			found = true
		}
	})
	if !found {
		t.Error("mutated consume with out-of-range queue not found")
	}
}

func TestMisplanNoComm(t *testing.T) {
	f := mustParse(t, "func t0(r1)\nentry:\n\tret\n")
	if _, _, ok, err := Misplan([]*ir.Function{f}, 0, 1); ok || err != nil {
		t.Errorf("Misplan on comm-free program: ok=%v err=%v, want vacuous", ok, err)
	}
}
