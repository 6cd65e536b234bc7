// Package fault is the deterministic fault-injection layer of the runtime.
// It exists to prove the system's detectors — ir.Verify, the oracle's
// invariant checks, interp.ErrDeadlock, the differential comparison against
// the single-threaded golden run — actually catch the fault classes they
// claim to, the same way mutation testing proves a test suite catches
// mutants.
//
// Everything here is seeded and replayable: an Injector's decisions are a
// pure function of its Spec and the sequence of injection opportunities the
// runtime presents, and the runtimes themselves are deterministic, so the
// same seed produces the same fault schedule, byte for byte, on every run.
// No wall-clock time and no global randomness are ever consulted.
//
// What this package shares with the filesystem injector (vfs.Faulty) is the
// seeded machinery — Splitmix, ClassSalt and the Cadence both embed. The
// class tables and report formats stay apart on purpose: queue faults are
// judged by the oracle per run (Class.Judge, Event schedules), filesystem
// faults by the cache's recovery scan, and neither vocabulary fits the other.
//
// The runtime classes are intercepted at the synchronization-array hooks of
// the multi-threaded interpreter (interp.MTConfig.Inject) and the
// cycle-level simulator (sim.RunInjected); MisplacePlan is a compile-time
// fault that corrupts a generated program's queue ownership before it runs.
package fault

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Class names one fault class.
type Class string

const (
	// DropProduce models a lost synchronization-array write: the produce
	// instruction issues and is accounted, but the value never lands in
	// the queue. Expected detection: deadlock (the consumer starves) or a
	// queue-ownership/traffic invariant violation.
	DropProduce Class = "drop-produce"
	// DupProduce models a doubled SA write: one produce enqueues its value
	// twice. Expected detection: live-out mismatch (the value stream
	// shifts) or a queue-balance violation.
	DupProduce Class = "dup-produce"
	// CorruptValue models a bit-flipped data value in flight: the enqueued
	// value is XORed with a seed-derived mask. Sync tokens (whose value is
	// ignored) are never corrupted — that would be undetectable by
	// construction. Expected detection: live-out or memory mismatch.
	CorruptValue Class = "corrupt-value"
	// SwapQueue models a mis-addressed SA write: a produce lands in a
	// different queue. Expected detection: deadlock or an ownership
	// violation. Vacuous on single-queue programs.
	SwapQueue Class = "swap-queue"
	// StallThread freezes one thread (core) for a bounded window. It is
	// semantics-preserving — a correct MTCG program is schedule
	// independent — so the run must complete with correct results.
	StallThread Class = "stall-thread"
	// ShrinkQueue halves the synchronization-array queue capacity (never
	// below one entry). Also semantics-preserving: MTCG correctness holds
	// at every capacity >= 1. Vacuous when the capacity is already 1.
	ShrinkQueue Class = "shrink-queue"
	// MisplacePlan is the compile-time fault: a generated program's queue
	// ownership is corrupted (one consume rewired to the wrong queue), the
	// "mis-specified plan" case. Expected detection: the oracle's queue
	// ownership check, before a single instruction runs.
	MisplacePlan Class = "misplan"
)

// Classes returns every fault class, in a fixed report order.
func Classes() []Class {
	return []Class{DropProduce, DupProduce, CorruptValue, SwapQueue,
		StallThread, ShrinkQueue, MisplacePlan}
}

// RuntimeClasses returns the classes injected through runtime hooks
// (everything except the compile-time MisplacePlan).
func RuntimeClasses() []Class {
	return []Class{DropProduce, DupProduce, CorruptValue, SwapQueue,
		StallThread, ShrinkQueue}
}

// Benign reports whether the class preserves program semantics: a correct
// runtime must *tolerate* it (complete with correct results) rather than
// detect it.
func (c Class) Benign() bool { return c == StallThread || c == ShrinkQueue }

// Verdict is how one chaos-armed run measured up to its class's detector
// contract.
type Verdict uint8

const (
	// VerdictOK: the contract held.
	VerdictOK Verdict = iota
	// VerdictMismatch: the run reported failures although no destructive
	// fault fired — nothing excuses them.
	VerdictMismatch
	// VerdictUndetected: a destructive fault fired and every check passed.
	VerdictUndetected
)

// Judge applies the detector contract to a run that injected the given
// number of faults and was clean (no check failed) or not: a destructive
// fault that fired must be detected; a benign one, or a schedule that never
// fired, must leave the run clean. The empty class — a fault-free run —
// injects nothing and so must be clean.
func (c Class) Judge(injected int64, clean bool) Verdict {
	switch {
	case injected > 0 && !c.Benign():
		if clean {
			return VerdictUndetected
		}
		return VerdictOK
	case clean:
		return VerdictOK
	}
	return VerdictMismatch
}

// ParseClass resolves a CLI spelling to a class.
func ParseClass(s string) (Class, error) {
	for _, c := range Classes() {
		if string(c) == s {
			return c, nil
		}
	}
	var names []string
	for _, c := range Classes() {
		names = append(names, string(c))
	}
	return "", fmt.Errorf("fault: unknown class %q (want one of %s)", s, strings.Join(names, ", "))
}

// Spec names a fault schedule: a class plus the seed that parameterizes
// where it fires. A Spec is immutable and comparable; each executor run
// instantiates its own stateful Injector with New, so concurrent runs never
// share mutable state and every run sees the same schedule.
type Spec struct {
	Class Class
	Seed  int64
}

// String renders the spec for reports and reproducer labels.
func (s Spec) String() string { return fmt.Sprintf("%s(seed=%d)", s.Class, s.Seed) }

// New instantiates a fresh injector for one executor run.
func (s Spec) New() *Injector {
	i := &Injector{spec: s}
	h := Splitmix(uint64(s.Seed) ^ ClassSalt(string(s.Class)))
	// First opportunity to fire, and the refire period. Both are small
	// enough that any realistic run presents an opportunity, and the
	// period is large enough that runs are perturbed, not buried.
	i.Offset = int64(h%29) + 1
	h = Splitmix(h)
	i.Period = int64(h%389) + 97
	h = Splitmix(h)
	// Nonzero corruption mask; flips low and high bits so both integer
	// and reinterpreted float values change materially.
	i.mask = int64(h) | 1
	h = Splitmix(h)
	i.stallLen = int64(h%193) + 64
	h = Splitmix(h)
	i.pickSalt = h
	return i
}

// ClassSalt decorrelates schedules across classes under one seed (FNV-1a
// over the class name). Shared by every seeded injector (fault, vfs).
func ClassSalt(c string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(c); i++ {
		h ^= uint64(c[i])
		h *= 1099511628211
	}
	return h
}

// Splitmix advances the SplitMix64 generator — tiny, seedable, and
// deterministic across platforms.
func Splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Cadence is the periodic firing pattern of a seeded injector: opportunity
// Offset fires, and every Period-th after it. Injector and vfs.Faulty embed
// it and draw the two numbers from their own seed.
type Cadence struct {
	Offset, Period int64
}

// Fires reports whether opportunity n (1-based) is on the schedule.
func (c Cadence) Fires(n int64) bool {
	return n >= c.Offset && (n-c.Offset)%c.Period == 0
}

// Event is one injected fault, recorded for the schedule report.
type Event struct {
	// N is the injection opportunity index the fault fired at (the n-th
	// produce, pick, ... presented to the injector).
	N int64
	// Where is the thread or core the fault applied to (-1 when not
	// thread-specific).
	Where int
	// Queue is the queue affected (-1 when not queue-specific).
	Queue int
	// Detail describes the concrete mutation.
	Detail string
}

// String renders the event on one line.
func (e Event) String() string {
	s := fmt.Sprintf("@%d", e.N)
	if e.Where >= 0 {
		s += fmt.Sprintf(" t%d", e.Where)
	}
	if e.Queue >= 0 {
		s += fmt.Sprintf(" q%d", e.Queue)
	}
	return s + " " + e.Detail
}

// maxRecorded bounds the event log; injections past the cap still happen
// and still count, they just stop accumulating log entries.
const maxRecorded = 64

// Injector is one run's stateful fault schedule. It is used by a single
// executor run and is not safe for concurrent use — exactly like a
// Scheduler. The runtimes call the hook methods below at each injection
// opportunity; the injector decides deterministically whether to fire.
type Injector struct {
	spec Spec
	Cadence
	mask     int64
	stallLen int64
	pickSalt uint64

	produces int64 // produce opportunities seen
	picks    int64 // scheduler-pick opportunities seen

	stallTarget  int // frozen thread, chosen on first pick
	stallStarted bool
	stallLeft    int64

	count  int64
	events []Event
}

// Spec returns the injector's immutable schedule name.
func (i *Injector) Spec() Spec { return i.spec }

// Count returns how many faults have been injected so far.
func (i *Injector) Count() int64 {
	if i == nil {
		return 0
	}
	return i.count
}

// Schedule renders the fault schedule deterministically, one event per
// line, for byte-identical reports across runs with the same seed.
func (i *Injector) Schedule() string {
	if i == nil || i.count == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d injected\n", i.spec, i.count)
	for _, e := range i.events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	if extra := i.count - int64(len(i.events)); extra > 0 {
		fmt.Fprintf(&b, "  ... and %d more\n", extra)
	}
	return b.String()
}

func (i *Injector) record(e Event) {
	i.count++
	if len(i.events) < maxRecorded {
		i.events = append(i.events, e)
	}
}

// QueueCap returns the effective queue capacity: halved (never below one)
// under ShrinkQueue, untouched otherwise. The first effective shrink is
// recorded once.
func (i *Injector) QueueCap(cap int) int {
	if i == nil || i.spec.Class != ShrinkQueue {
		return cap
	}
	eff := cap / 2
	if eff < 1 {
		eff = 1
	}
	if eff != cap && i.count == 0 {
		i.record(Event{N: 0, Where: -1, Queue: -1,
			Detail: fmt.Sprintf("queue capacity %d -> %d", cap, eff)})
	}
	return eff
}

// Produce intercepts one enqueue: thread (core) t is producing value v into
// queue q of a program with numQueues queues; data is true for a value
// carrying produce (false for a sync token). It returns the queue the
// value(s) actually land in, the value, and the multiplicity: 0 drops the
// value, 1 is a faithful enqueue, 2 duplicates it.
func (i *Injector) Produce(t, q int, v int64, numQueues int, data bool) (int, int64, int) {
	if i == nil {
		return q, v, 1
	}
	switch i.spec.Class {
	case DropProduce:
		i.produces++
		if i.Fires(i.produces) {
			i.record(Event{N: i.produces, Where: t, Queue: q, Detail: "produce dropped"})
			return q, v, 0
		}
	case DupProduce:
		i.produces++
		if i.Fires(i.produces) {
			i.record(Event{N: i.produces, Where: t, Queue: q, Detail: "produce duplicated"})
			return q, v, 2
		}
	case CorruptValue:
		if !data {
			break // corrupting an ignored sync token is undetectable
		}
		i.produces++
		if i.Fires(i.produces) {
			i.record(Event{N: i.produces, Where: t, Queue: q,
				Detail: fmt.Sprintf("value %d corrupted to %d", v, v^i.mask)})
			return q, v ^ i.mask, 1
		}
	case SwapQueue:
		if numQueues < 2 {
			break // nowhere to misdirect to
		}
		i.produces++
		if i.Fires(i.produces) {
			to := (q + 1 + int(Splitmix(uint64(i.produces))%uint64(numQueues-1))) % numQueues
			i.record(Event{N: i.produces, Where: t, Queue: q,
				Detail: fmt.Sprintf("produce misdirected to q%d", to)})
			return to, v, 1
		}
	}
	return q, v, 1
}

// Stall intercepts one scheduler pick (interp) or core issue slot (sim):
// it reports whether thread/core t of n total is frozen this turn. The
// frozen target and the freeze window are seed-derived; the window counts
// down per intercepted turn, so a freeze always expires even if no other
// thread can run, and a stall can never manufacture a deadlock.
func (i *Injector) Stall(t, n int) bool {
	if i == nil || i.spec.Class != StallThread || n == 0 {
		return false
	}
	if !i.stallStarted {
		i.stallTarget = int(i.pickSalt % uint64(n))
		i.stallStarted = true
		i.stallLeft = i.stallLen
	}
	if t != i.stallTarget || i.stallLeft <= 0 {
		return false
	}
	i.picks++
	if i.picks < i.Offset {
		return false // freeze begins at the offset-th pick of the target
	}
	i.stallLeft--
	if i.picks == i.Offset {
		i.record(Event{N: i.picks, Where: t, Queue: -1,
			Detail: fmt.Sprintf("frozen for %d turns", i.stallLen)})
	} else {
		i.count++ // every wasted turn is an injection, but log only the window
	}
	return true
}

// Misplan returns structural clones of a generated program's threads with
// one consume rewired to the wrong queue — the mis-specified-plan fault.
// The clones are built by an IR print→parse round trip, so the threads
// themselves are never touched. It returns ok=false when the program has no
// communication to corrupt. The mutation deterministically picks a consume
// and a wrong target queue from the seed; when the program has a single
// queue the consume is rewired to an out-of-range queue, which the runtimes
// reject as a typed error.
func Misplan(threads []*ir.Function, numQueues int, seed int64) ([]*ir.Function, string, bool, error) {
	if numQueues == 0 {
		return nil, "", false, nil
	}
	var clone []*ir.Function
	for _, f := range threads {
		cf, err := ir.Parse(f.String())
		if err != nil {
			return nil, "", false, fmt.Errorf("fault: cloning thread %s: %w", f.Name, err)
		}
		clone = append(clone, cf)
	}
	var consumes []*ir.Instr
	for _, f := range clone {
		f.Instrs(func(in *ir.Instr) {
			if in.Op == ir.Consume || in.Op == ir.ConsumeSync {
				consumes = append(consumes, in)
			}
		})
	}
	if len(consumes) == 0 {
		return nil, "", false, nil
	}
	h := Splitmix(uint64(seed) ^ ClassSalt(string(MisplacePlan)))
	victim := consumes[h%uint64(len(consumes))]
	from := victim.Queue
	to := numQueues // out of range: the single-queue case
	if numQueues > 1 {
		to = (from + 1 + int(Splitmix(h)%uint64(numQueues-1))) % numQueues
	}
	victim.Queue = to
	desc := fmt.Sprintf("consume rewired from q%d to q%d", from, to)
	return clone, desc, true, nil
}
