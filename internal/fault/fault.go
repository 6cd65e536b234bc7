// Package fault is the deterministic fault layer of the runtime. It exists
// to prove the system's detectors — ir.Verify, the oracle's invariant
// checks, interp.ErrDeadlock, the differential comparison against the
// single-threaded golden run — actually catch the fault classes they claim
// to, the same way mutation testing proves a test suite catches mutants.
//
// In MTCG, inter-thread communication is a set of instructions in the
// generated program (produce, consume and their .sync forms), so a
// communication fault is an edit of that program. Mutate expresses each
// destructive class as one seeded edit at one produce or consume site,
// decided before anything runs; the executors run the mutant like any
// other program and know nothing of faults. The two benign classes need no
// edit: ShrinkQueue is the halved capacity Spec.QueueCap returns, and
// StallThread is the scheduler wrapper Spec.Sched returns.
//
// Everything here is seeded and replayable: a mutant, a capacity and a
// stall window are pure functions of the Spec and the program, and the
// runtimes themselves are deterministic, so the same seed produces the same
// faulty run, byte for byte, every time. No wall-clock time and no global
// randomness are ever consulted.
//
// What this package shares with the filesystem injector (vfs.Faulty) is the
// seeded machinery — Splitmix, ClassSalt and the Cadence it embeds. The
// class tables and report formats stay apart on purpose: queue faults are
// judged by the oracle per program (Class.Judge), filesystem faults by the
// cache's recovery scan, and neither vocabulary fits the other.
package fault

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
)

// StallLimit is the no-progress watchdog (sim.Config.StallLimit) of every run
// with a fault armed: a mutant's deadlock fails fast, not at the cycle budget.
const StallLimit = 50_000

// Class names one fault class.
type Class string

const (
	// DropProduce models a lost synchronization-array write: one produce
	// is deleted from the program. Expected detection: deadlock (the
	// consumer starves) or a queue-balance violation.
	DropProduce Class = "drop-produce"
	// DupProduce models a doubled SA write: one produce is duplicated in
	// place. Expected detection: live-out mismatch (the value stream
	// shifts), a queue-balance violation, or deadlock.
	DupProduce Class = "dup-produce"
	// CorruptValue models a bit-flipped data value in flight: one data
	// produce sends its value XORed with a seed-derived mask through a new
	// register. Sync tokens (whose value is ignored) are never corrupted —
	// that would be undetectable by construction. Expected detection:
	// live-out or memory mismatch.
	CorruptValue Class = "corrupt-value"
	// SwapQueue models a mis-addressed SA write: one produce names a
	// different queue. Expected detection: deadlock or an ownership or
	// balance violation. Vacuous on single-queue programs.
	SwapQueue Class = "swap-queue"
	// StallThread defers one thread for a bounded window of scheduler
	// picks. It is semantics-preserving — a correct MTCG program is
	// schedule independent — so the run must complete with correct
	// results.
	StallThread Class = "stall-thread"
	// ShrinkQueue halves the synchronization-array queue capacity (never
	// below one entry). Also semantics-preserving: MTCG correctness holds
	// at every capacity >= 1. Vacuous when the capacity is already 1.
	ShrinkQueue Class = "shrink-queue"
	// MisplacePlan is the mis-specified plan: one consume is rewired to
	// the wrong queue. Expected detection: the oracle's queue ownership
	// check before a single instruction runs, or a balance violation or
	// deadlock when the rewired queue has the same owners.
	MisplacePlan Class = "misplan"
)

// Classes returns every fault class, in a fixed report order.
func Classes() []Class {
	return []Class{DropProduce, DupProduce, CorruptValue, SwapQueue,
		StallThread, ShrinkQueue, MisplacePlan}
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
	// fault was injected — nothing excuses them.
	VerdictMismatch
	// VerdictUndetected: a destructive fault was injected and every check
	// passed.
	VerdictUndetected
)

// Judge applies the detector contract to a run that injected the given
// number of faults and was clean (no check failed) or not: a destructive
// fault that was injected must be detected; a benign one, or one with
// nowhere to go, must leave the run clean. The empty class — a fault-free
// run — injects nothing and so must be clean.
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

// Spec names a fault: a class plus the seed that decides where it lands. A
// Spec is immutable and comparable. The zero Spec is no fault: Mutate finds
// nothing to edit, QueueCap and Sched change nothing.
type Spec struct {
	Class Class
	Seed  int64
}

// String renders the spec for reports and reproducer labels.
func (s Spec) String() string { return fmt.Sprintf("%s(seed=%d)", s.Class, s.Seed) }

// hash is the spec's first seeded draw; later draws Splitmix it onward.
func (s Spec) hash() uint64 { return Splitmix(uint64(s.Seed) ^ ClassSalt(string(s.Class))) }

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
// Offset fires, and every Period-th after it. vfs.Faulty embeds it and
// draws the two numbers from its own seed.
type Cadence struct {
	Offset, Period int64
}

// Fires reports whether opportunity n (1-based) is on the schedule.
func (c Cadence) Fires(n int64) bool {
	return n >= c.Offset && (n-c.Offset)%c.Period == 0
}

// QueueCap returns the capacity a run under the spec uses in place of cap:
// halved (never below one) under ShrinkQueue, cap itself otherwise.
func (s Spec) QueueCap(cap int) int {
	if s.Class != ShrinkQueue || cap <= 1 {
		return cap
	}
	return cap / 2
}

// Sched returns the scheduler a run of an n-thread program under the spec
// uses in place of inner: under StallThread, inner wrapped so that one
// seed-chosen thread is deferred for a bounded window of picks; inner
// itself otherwise, or when there is no second thread to run instead.
// Like every Scheduler, the result belongs to one run.
func (s Spec) Sched(inner interp.Scheduler, n int) interp.Scheduler {
	if s.Class != StallThread || n < 2 {
		return inner
	}
	st := s.stall(n)
	st.inner = inner
	return &st
}

// stall draws the StallThread window for an n-thread program.
func (s Spec) stall(n int) stall {
	h := s.hash()
	st := stall{target: int(h % uint64(n))}
	h = Splitmix(h)
	st.from = int64(h%29) + 1
	h = Splitmix(h)
	st.left = int64(h%193) + 64
	return st
}

// Perturbs describes what a benign spec changes about the runs of an
// n-thread program at the queue capacities caps; ok is false when it
// changes nothing (a destructive class changes the program instead: see
// Mutate).
func (s Spec) Perturbs(n int, caps []int) (desc string, ok bool) {
	switch s.Class {
	case ShrinkQueue:
		for _, c := range caps {
			if h := s.QueueCap(c); h != c {
				return fmt.Sprintf("queue capacity %d -> %d", c, h), true
			}
		}
	case StallThread:
		if n > 1 {
			st := s.stall(n)
			return fmt.Sprintf("thread %d deferred for %d picks from pick %d", st.target, st.left, st.from), true
		}
	}
	return "", false
}

// stall defers thread target: from the run's from-th pick on, for left
// picks at which another thread is runnable too, it asks inner to choose
// among the others. When target is the only runnable thread it is picked, so a stall
// delays but never deadlocks a run.
type stall struct {
	inner      interp.Scheduler
	target     int
	from, left int64
	picks      int64
	others     []int
}

func (s *stall) Name() string { return fmt.Sprintf("%s+stall(t%d)", s.inner.Name(), s.target) }

func (s *stall) Pick(runnable []int, lastRan []int64, step int64) int {
	s.picks++
	if s.picks >= s.from && s.left > 0 && len(runnable) > 1 {
		s.others = s.others[:0]
		for _, t := range runnable {
			if t != s.target {
				s.others = append(s.others, t)
			}
		}
		if len(s.others) < len(runnable) {
			s.left--
			return s.inner.Pick(s.others, lastRan, step)
		}
	}
	return s.inner.Pick(runnable, lastRan, step)
}

// Mutate returns a copy of prog carrying the spec's destructive fault as
// one edit at one communication site, with a one-line description of the
// edit. The mutant is a well-formed program (it passes ir.Verify). The
// site is drawn by the seed from the produces (the data produces some
// consumer observes, for CorruptValue; consumes, for MisplacePlan) whose
// origin block executed in the run that recorded prof,
// the golden run's edge profile over prog.Orig — so a mutant always
// changes what that input executes. ok is false when the class is benign
// or empty, when prog records no Origins (a mutant or a hand-written
// program: nothing is known to execute), or when no candidate site
// executed.
//
// The copy is built by an IR print→parse round trip, keeping each
// instruction's Orig, so prog is never touched; it records no Origins, as
// it is no longer MTCG's output.
func Mutate(prog *mtcg.Program, prof *ir.Profile, spec Spec) (*mtcg.Program, string, bool, error) {
	if prog.Origins == nil {
		return nil, "", false, nil
	}
	want := siteFilter(spec.Class, prog)
	if want == nil {
		return nil, "", false, nil
	}
	freq := prof.Frequencies(prog.Orig)
	type site struct{ t, b, i int }
	var sites []site
	for t, f := range prog.Threads {
		for b, blk := range f.Blocks {
			if freq[prog.Origins[t][b].ID] == 0 {
				continue
			}
			for i, in := range blk.Instrs {
				if want(in) {
					sites = append(sites, site{t, b, i})
				}
			}
		}
	}
	if len(sites) == 0 {
		return nil, "", false, nil
	}
	threads := make([]*ir.Function, len(prog.Threads))
	for t, f := range prog.Threads {
		cf, err := clone(f)
		if err != nil {
			return nil, "", false, err
		}
		threads[t] = cf
	}
	h := spec.hash()
	nq := prog.NumQueues
	at := sites[h%uint64(len(sites))]
	h = Splitmix(h)
	f := threads[at.t]
	blk := f.Blocks[at.b]
	in := blk.Instrs[at.i]
	where := fmt.Sprintf("thread %d %s[%d] %v", at.t, blk.Name, at.i, in)
	var desc string
	switch spec.Class {
	case DropProduce:
		blk.Instrs = append(blk.Instrs[:at.i], blk.Instrs[at.i+1:]...)
		desc = "dropped " + where
	case DupProduce:
		dup := f.NewInstr(in.Op, ir.NoReg, in.Srcs...)
		dup.Queue, dup.Orig = in.Queue, in.Orig
		blk.InsertAt(at.i+1, dup)
		desc = "duplicated " + where
	case CorruptValue:
		// The mask sets bits 0, 62 and 63 among seeded bits between,
		// so the value changes materially read either way. As an
		// integer it changes parity and sign: zero never stays zero,
		// and a sentinel (a running maximum's -2^40 start) crosses to
		// the other side of every small value. As a float64 its
		// exponent's top bit flips: an accumulator's 0.0 start becomes
		// at least 2 in magnitude, too large for later sums to absorb.
		mask := int64(h) | 1 | 1<<62 | math.MinInt64
		m, v := f.NewReg(), f.NewReg()
		c := f.NewInstr(ir.Const, m)
		c.Imm = mask
		blk.InsertAt(at.i, c)
		blk.InsertAt(at.i+1, f.NewInstr(ir.Xor, v, in.Srcs[0], m))
		in.Srcs = []ir.Reg{v}
		desc = fmt.Sprintf("corrupted (xor %#x) %s", uint64(mask), where)
	case SwapQueue, MisplacePlan:
		to := nq // a single-queue misplan: a new queue nothing produces into
		if nq > 1 {
			to = (in.Queue + 1 + int(h%uint64(nq-1))) % nq
		} else {
			nq++
			for _, f := range threads {
				f.NumQueues = nq
			}
		}
		in.Queue = to
		desc = fmt.Sprintf("rewired to q%d %s", to, where)
	}
	return &mtcg.Program{
		Orig:       prog.Orig,
		Threads:    threads,
		NumQueues:  nq,
		Comms:      append([]*mtcg.Comm(nil), prog.Comms...),
		Assign:     prog.Assign,
		NumThreads: prog.NumThreads,
	}, desc, true, nil
}

// siteFilter returns which instructions of prog class c may edit, or nil
// when it edits none.
func siteFilter(c Class, prog *mtcg.Program) func(*ir.Instr) bool {
	produce := func(in *ir.Instr) bool { return in.Op == ir.Produce || in.Op == ir.ProduceSync }
	switch c {
	case DropProduce, DupProduce:
		return produce
	case CorruptValue:
		seen := observed(prog)
		return func(in *ir.Instr) bool { return in.Op == ir.Produce && seen[in.Queue] }
	case SwapQueue:
		if prog.NumQueues > 1 {
			return produce
		}
	case MisplacePlan:
		if prog.NumQueues > 0 {
			return func(in *ir.Instr) bool { return in.Op == ir.Consume || in.Op == ir.ConsumeSync }
		}
	}
	return nil
}

// observed reports, per queue, whether a value consumed from it can reach
// what a run shows — a live-out, a store, a branch or a load address —
// through the registers of the consuming thread, and on through its
// produces to the threads downstream. A value no consumer observes is as
// undetectable corrupted as a sync token. Register flow is followed
// regardless of position, so a queue is reported unobserved only when its
// value is certainly dead.
func observed(prog *mtcg.Program) []bool {
	seen := make([]bool, prog.NumQueues)
	need := make([][]bool, len(prog.Threads))
	for t, f := range prog.Threads {
		need[t] = make([]bool, int(f.MaxReg())+1)
	}
	for grew := true; grew; {
		grew = false
		for t, f := range prog.Threads {
			f.Instrs(func(in *ir.Instr) {
				switch in.Op {
				case ir.Ret, ir.Store, ir.Br, ir.Load:
				case ir.Produce:
					if !seen[in.Queue] {
						return
					}
				case ir.Consume:
					if need[t][in.Dst] && !seen[in.Queue] {
						seen[in.Queue], grew = true, true
					}
					return
				default:
					if in.Dst == ir.NoReg || !need[t][in.Dst] {
						return
					}
				}
				for _, r := range in.Srcs {
					if !need[t][r] {
						need[t][r], grew = true, true
					}
				}
			})
		}
	}
	return seen
}

// clone copies f by printing and parsing it, then restores what the text
// does not carry: the queue count, and each instruction's Orig link (the
// copy's blocks and instructions are in f's order).
func clone(f *ir.Function) (*ir.Function, error) {
	cf, err := ir.Parse(f.String())
	if err != nil {
		return nil, fmt.Errorf("fault: cloning thread %s: %w", f.Name, err)
	}
	cf.NumQueues = f.NumQueues
	for b, blk := range f.Blocks {
		for i, in := range blk.Instrs {
			cf.Blocks[b].Instrs[i].Orig = in.Orig
		}
	}
	return cf, nil
}
