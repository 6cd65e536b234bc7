// Package oracle is the differential-execution oracle: it runs the same
// region through all three executors — the single-threaded interpreter
// (the golden reference), the multi-threaded interpreter under a matrix
// of scheduling policies and queue depths, and the cycle-level simulator
// — and cross-checks their outcomes.
//
// A correct MTCG compilation is schedule-independent: live-outs, final
// memory, and dynamic produce/consume counts must not depend on which
// runnable thread steps first or how deep the synchronization-array
// queues are. The oracle exploits this to turn any interleaving
// divergence, deadlock, or accounting mismatch into a reported failure.
// Beyond output equivalence it asserts internal invariants:
//
//   - queue balance: every value produced into a queue is consumed;
//   - queue ownership: each queue has exactly one producing and one
//     consuming thread, matching the communication plan;
//   - step accounting: RunMT's step counter equals the per-role totals;
//   - schedule independence: dynamic instruction and queue-traffic
//     counts are identical under every scheduling policy;
//   - counted communication: on a clean cell every run's dynamic counts
//     equal the program's placement counted over the golden run's edge
//     profile (mtcg.Program.Counts), which is how the experiment harness
//     measures Figures 1 and 7 without running the program;
//   - sim agreement: the simulator's functional results and dynamic
//     produce/consume counts match the interpreter's.
//
// The package also ships a test-case shrinker (Shrink) that minimizes a
// failing random program to a small reproducer, and a corpus format
// (FormatCase/ParseCase) for checking reproducers in as regression tests.
package oracle

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/coco"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/randprog"
	"repro/internal/sim"
)

// Case is one differential test case: a region plus one concrete input.
type Case struct {
	// Name identifies the case in failure reports ("seed=42", a corpus
	// file name, or a workload name).
	Name string
	// Seed records the randprog seed the case came from (0 if hand
	// written); it is provenance only.
	Seed    int64
	F       *ir.Function
	Objects []ir.MemObject
	Args    []int64
	Mem     []int64
	// Replay, when non-nil, records the matrix cell the case failed in;
	// it travels with the reproducer file (see corpus.go) but Check does
	// not apply it implicitly — callers opt in via ReplayConfig.Apply.
	Replay *ReplayConfig
	// TraceID, when set, links the reproducer back to the telemetry of
	// the run that found it (obs.TraceID form). Provenance only: it
	// never affects how the case runs.
	TraceID string
}

// FromProgram wraps a generated random program as a Case.
func FromProgram(name string, seed int64, p *randprog.Program) *Case {
	return &Case{Name: name, Seed: seed, F: p.F, Objects: p.Objects, Args: p.Args, Mem: p.Mem}
}

// Generate builds the deterministic random case for a seed.
func Generate(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	p := randprog.Generate(rng, randprog.DefaultOptions())
	return FromProgram(fmt.Sprintf("seed=%d", seed), seed, p)
}

// SchedSpec names a scheduling policy so a run can be reproduced from a
// report (scheduler values are stateful; each run needs a fresh one).
type SchedSpec struct {
	// Name is a policy accepted by interp.SchedulerByName.
	Name string
	// Seed parameterizes the random policy.
	Seed int64
}

// New instantiates the policy.
func (s SchedSpec) New() (interp.Scheduler, error) {
	return interp.SchedulerByName(s.Name, s.Seed)
}

// String renders the spec for failure labels.
func (s SchedSpec) String() string {
	if s.Name == "random" {
		return fmt.Sprintf("random(%d)", s.Seed)
	}
	return s.Name
}

// DefaultSchedules is the policy matrix the acceptance criteria require:
// round-robin, three seeded random interleavings, and the adversarial
// longest-blocked-first policy.
func DefaultSchedules(seed int64) []SchedSpec {
	return []SchedSpec{
		{Name: "round-robin"},
		{Name: "random", Seed: seed},
		{Name: "random", Seed: seed + 1},
		{Name: "random", Seed: seed + 2},
		{Name: "adversarial"},
	}
}

// Options configures the matrix Check explores. The zero value means the
// full default matrix (sim check included).
type Options struct {
	// Threads lists thread counts to partition into (default {2, 3}).
	Threads []int
	// Partitioners are the real partitioners to exercise (default DSWP
	// and GREMIO).
	Partitioners []partition.Partitioner
	// RandomParts is the number of uniform random partitions per thread
	// count (default 2; set negative to disable).
	RandomParts int
	// Seed drives the random partitions and the default schedule matrix.
	Seed int64
	// Schedules is the scheduling-policy matrix (default
	// DefaultSchedules(Seed)).
	Schedules []SchedSpec
	// QueueCaps lists synchronization-array depths to run under
	// (default {1, 32}: the two depths the paper evaluates).
	QueueCaps []int
	// SkipSim disables the cycle-level simulator cross-check.
	SkipSim bool
	// MaxSteps bounds each interpreter run (default 5M).
	MaxSteps int64
	// SimCycles bounds each simulator run (default 50M).
	SimCycles int64
	// SimStallLimit overrides the simulator's no-progress watchdog
	// (sim.Config.StallLimit); 0 keeps the default. Chaos runs lower it so
	// a mutant's deadlock fails fast.
	SimStallLimit int64
	// Inject, when non-nil, arms a deterministic fault, decided per
	// program before anything runs: a destructive class checks the
	// program's mutant (fault.Mutate) in its place, a benign one shrinks
	// every run's queues (fault.Spec.QueueCap) or wraps every interpreter
	// run's scheduler (fault.Spec.Sched). The programs it changed and the
	// first change are reported in Report.Injected and
	// Report.FaultSchedule. With a destructive fault armed, failures are
	// the expected outcome — the detector-coverage matrix asserts they
	// appear.
	Inject *fault.Spec
}

func (o Options) withDefaults() Options {
	if o.Threads == nil {
		o.Threads = []int{2, 3}
	}
	if o.Partitioners == nil {
		o.Partitioners = []partition.Partitioner{partition.DSWP{}, partition.GREMIO{}}
	}
	if o.RandomParts == 0 {
		o.RandomParts = 2
	}
	if o.RandomParts < 0 {
		o.RandomParts = 0
	}
	if o.Schedules == nil {
		o.Schedules = DefaultSchedules(o.Seed)
	}
	if o.QueueCaps == nil {
		o.QueueCaps = []int{1, interp.DefaultQueueCap}
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 5_000_000
	}
	if o.SimCycles == 0 {
		o.SimCycles = 50_000_000
	}
	return o
}

// Kind classifies a failure.
type Kind string

const (
	// LiveOutMismatch: an executor's live-outs differ from the golden run.
	LiveOutMismatch Kind = "live-out-mismatch"
	// MemMismatch: an executor's final memory differs from the golden run.
	MemMismatch Kind = "memory-mismatch"
	// Deadlock: the multi-threaded run deadlocked.
	Deadlock Kind = "deadlock"
	// InvariantViolation: an internal invariant (queue balance, queue
	// ownership, step accounting, schedule independence) failed.
	InvariantViolation Kind = "invariant-violation"
	// SimDivergence: the simulator disagrees with the interpreters.
	SimDivergence Kind = "sim-divergence"
	// ExecError: a compilation stage or executor returned an error.
	ExecError Kind = "error"
)

// Failure is one divergence found by the oracle.
type Failure struct {
	// Case names the test case.
	Case string
	// Config identifies the configuration, e.g. "dswp/2t/coco/cap=1/adversarial".
	Config string
	Kind   Kind
	Detail string
}

// String renders the failure on one line (details may span more).
func (f Failure) String() string {
	return fmt.Sprintf("[%s] %s: %s: %s", f.Kind, f.Case, f.Config, f.Detail)
}

// Report aggregates an oracle pass.
type Report struct {
	// Programs is the number of generated multi-threaded programs checked.
	Programs int
	// Runs is the number of executor runs the matrix asked for: one per
	// schedule × queue depth, plus the simulator's.
	Runs     int
	Failures []Failure
	// Injected counts the programs the armed fault changed (always 0
	// without Options.Inject).
	Injected int64
	// FaultSchedule describes the first change — a deterministic function
	// of the fault spec and the program, so reports under the same seed
	// are byte-identical.
	FaultSchedule string
}

// Ok reports whether no failure was found.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

// Has reports whether a failure of kind k was found.
func (r *Report) Has(k Kind) bool {
	for _, f := range r.Failures {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// Err returns nil when the report is clean, or an error summarizing the
// first failures.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %d failure(s) in %d runs over %d programs:",
		len(r.Failures), r.Runs, r.Programs)
	for i, f := range r.Failures {
		if i == 3 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(r.Failures)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return errors.New(b.String())
}

func (r *Report) add(caseName, config string, kind Kind, detail string) {
	r.Failures = append(r.Failures, Failure{Case: caseName, Config: config, Kind: kind, Detail: detail})
}

// Golden is the single-threaded reference outcome every other executor is
// compared against: the interpreter's record of the case's run.
type Golden = interp.Result

// RunGolden executes the case single-threaded. An error here means the
// case itself is bad (e.g. it exceeds the step budget), not that a bug
// was found.
func RunGolden(c *Case, maxSteps int64) (*Golden, error) {
	return interp.Run(c.F, c.Args, append([]int64(nil), c.Mem...), maxSteps)
}

// Check runs the full differential matrix on one case: every partition
// source × {naive, COCO} communication plan, each compiled program
// executed under every scheduling policy and queue depth and (unless
// disabled) the cycle-level simulator. The returned error reports an
// unusable case (golden run failed); divergences are in the Report.
func Check(c *Case, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	g, err := RunGolden(c, opts.MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("oracle: golden run of %s: %w", c.Name, err)
	}
	graph := pdg.Build(c.F, c.Objects)
	rep := &Report{}
	rng := rand.New(rand.NewSource(opts.Seed))

	type source struct {
		label  string
		assign map[*ir.Instr]int
		n      int
	}
	var sources []source
	for _, p := range opts.Partitioners {
		for _, n := range opts.Threads {
			label := fmt.Sprintf("%s/%dt", p.Name(), n)
			assign, err := p.Partition(c.F, graph, g.Profile, n)
			if err != nil {
				rep.add(c.Name, label, ExecError, "partition: "+err.Error())
				continue
			}
			sources = append(sources, source{label, assign, n})
		}
	}
	for _, n := range opts.Threads {
		for k := 0; k < opts.RandomParts; k++ {
			sources = append(sources, source{
				fmt.Sprintf("random-part%d/%dt", k, n),
				randprog.RandomPartition(rng, c.F, n), n,
			})
		}
	}

	for _, s := range sources {
		checkPlan(rep, c, g, s.label+"/naive", mtcg.NaivePlan(c.F, graph, s.assign, s.n), opts)
		cp, err := coco.Plan(c.F, graph, s.assign, s.n, g.Profile, coco.DefaultOptions())
		if err != nil {
			rep.add(c.Name, s.label+"/coco", ExecError, "coco: "+err.Error())
			continue
		}
		checkPlan(rep, c, g, s.label+"/coco", cp, opts)
	}
	return rep, nil
}

// checkPlan compiles one communication plan and cross-checks the result.
func checkPlan(rep *Report, c *Case, g *Golden, label string, plan *mtcg.Plan, opts Options) {
	prog, err := mtcg.Generate(plan)
	if err != nil {
		rep.add(c.Name, label, ExecError, "mtcg: "+err.Error())
		return
	}
	for _, ft := range prog.Threads {
		if err := ft.Verify(); err != nil {
			rep.add(c.Name, label, InvariantViolation,
				fmt.Sprintf("generated thread %s invalid: %v", ft.Name, err))
			return
		}
	}
	queue.Allocate(prog)
	CheckProgram(rep, c.Name, g, label, prog, c.Args, c.Mem, opts)
}

// CheckProgram cross-checks one compiled multi-threaded program against
// the golden outcome: the interpreter under every schedule × queue depth
// of opts, the internal invariants, and (unless opts.SkipSim) the
// simulator. With a fault armed it checks what the fault makes of prog
// (see Options.Inject). Failures are appended to rep. The experiment
// harness uses this entry point directly on the workload pipelines.
func CheckProgram(rep *Report, caseName string, g *Golden, label string,
	prog *mtcg.Program, args, mem []int64, opts Options) {
	opts = opts.withDefaults()
	rep.Programs++

	var spec fault.Spec
	if opts.Inject != nil {
		spec = *opts.Inject
	}
	// The counts of MTCG's own output are also known without a run: each
	// generated block executes as often as the original block it copies
	// did in the golden run (mtcg.Program.Counts). The comparison belongs
	// to the runs it checks and adds none to Runs.
	var counted *interp.CommStats
	if prog.Origins != nil {
		c := prog.Counts(g.Profile)
		counted = &c
	}
	maxSteps := opts.MaxSteps
	mut, desc, changed, err := fault.Mutate(prog, g.Profile, spec)
	if err != nil {
		rep.add(caseName, label, ExecError, err.Error())
		return
	}
	if changed {
		// A mutant adds at most two instructions per execution of its
		// site, so while it keeps prog's control flow it issues at most
		// three times prog's count. Past that it has left it — a
		// corrupted loop bound spins — and stops there, not at the
		// budget. Its own counts are no longer the placement's.
		prog = mut
		if counted != nil {
			maxSteps = min(maxSteps, 3*counted.Total())
			counted = nil
		}
	} else {
		desc, changed = spec.Perturbs(len(prog.Threads), opts.QueueCaps)
	}
	if changed {
		rep.Injected++
		if rep.FaultSchedule == "" {
			rep.FaultSchedule = desc
		}
	}

	prodOf, consOf, err := queueOwners(prog)
	if err != nil {
		rep.add(caseName, label, InvariantViolation, err.Error())
		return
	}

	// ref is the first successful interpreter run; every later run must
	// reproduce its dynamic counts exactly (schedule independence).
	var ref *interp.MTResult
	refConfig := ""
	for _, qcap := range opts.QueueCaps {
		for _, ss := range opts.Schedules {
			config := fmt.Sprintf("%s/cap=%d/%s", label, qcap, ss)
			sched, err := ss.New()
			if err != nil {
				rep.add(caseName, config, ExecError, err.Error())
				continue
			}
			cfg := interp.MTConfig{
				Threads: prog.Threads, NumQueues: prog.NumQueues,
				QueueCap: spec.QueueCap(qcap), Sched: spec.Sched(sched, len(prog.Threads)),
				Assign: prog.Assign, Args: args, Mem: append([]int64(nil), mem...),
				MaxSteps: maxSteps,
			}
			mt, err := interp.RunMT(cfg)
			rep.Runs++
			if err != nil {
				kind := ExecError
				if errors.Is(err, interp.ErrDeadlock) {
					kind = Deadlock
				}
				rep.add(caseName, config, kind, err.Error())
				continue
			}
			if d := diffVals("live-out", mt.LiveOuts, g.LiveOuts); d != "" {
				rep.add(caseName, config, LiveOutMismatch, d)
			}
			if d := diffVals("mem", mt.Mem, g.Mem); d != "" {
				rep.add(caseName, config, MemMismatch, d)
			}
			checkRunInvariants(rep, caseName, config, mt, prodOf, consOf)
			if counted != nil && mt.Stats != *counted {
				rep.add(caseName, config, InvariantViolation, fmt.Sprintf(
					"counted communication: the run executed %+v, the placement over the golden profile counts %+v",
					mt.Stats, *counted))
			}
			if ref == nil {
				ref, refConfig = mt, config
			} else {
				checkScheduleIndependence(rep, caseName, config, refConfig, mt, ref)
			}
		}
	}

	if opts.SkipSim || ref == nil {
		return
	}
	for _, qcap := range opts.QueueCaps {
		config := fmt.Sprintf("%s/cap=%d/sim", label, qcap)
		cfg := sim.DefaultConfig()
		cfg.QueueCap = spec.QueueCap(qcap)
		if len(prog.Threads) > cfg.Cores {
			cfg.Cores = len(prog.Threads)
		}
		if prog.NumQueues > cfg.NumQueues {
			cfg.NumQueues = prog.NumQueues
		}
		if opts.SimStallLimit > 0 {
			cfg.StallLimit = opts.SimStallLimit
		}
		sr, err := sim.Run(cfg, prog.Threads, args, append([]int64(nil), mem...), opts.SimCycles)
		rep.Runs++
		if err != nil {
			rep.add(caseName, config, SimDivergence, err.Error())
			continue
		}
		if d := diffVals("live-out", sr.LiveOuts, g.LiveOuts); d != "" {
			rep.add(caseName, config, SimDivergence, d)
		}
		if d := diffVals("mem", sr.Mem, g.Mem); d != "" {
			rep.add(caseName, config, SimDivergence, d)
		}
		var simProd, simCons int64
		for _, cs := range sr.PerCore {
			simProd += cs.Produces
			simCons += cs.Consumes
		}
		intProd := ref.Stats.Produce + ref.Stats.ProduceSync
		intCons := ref.Stats.Consume + ref.Stats.ConsumeSync
		if simProd != intProd || simCons != intCons {
			rep.add(caseName, config, SimDivergence, fmt.Sprintf(
				"dynamic communication disagrees with interpreter: sim produced %d consumed %d, interp produced %d consumed %d",
				simProd, simCons, intProd, intCons))
		}
	}
}

// queueOwners derives, from the generated thread code, which thread
// produces into and consumes from each queue, checking single-ownership
// and agreement with the communication table.
func queueOwners(prog *mtcg.Program) (prodOf, consOf []int, err error) {
	prodOf = make([]int, prog.NumQueues)
	consOf = make([]int, prog.NumQueues)
	for q := range prodOf {
		prodOf[q], consOf[q] = -1, -1
	}
	claim := func(owners []int, q, t int, role string) error {
		if q < 0 || q >= len(owners) {
			return fmt.Errorf("queue %d out of range [0,%d)", q, len(owners))
		}
		if owners[q] >= 0 && owners[q] != t {
			return fmt.Errorf("queue %d %sd by both thread %d and thread %d", q, role, owners[q], t)
		}
		owners[q] = t
		return nil
	}
	for t, fn := range prog.Threads {
		var werr error
		fn.Instrs(func(in *ir.Instr) {
			if werr != nil {
				return
			}
			switch in.Op {
			case ir.Produce, ir.ProduceSync:
				werr = claim(prodOf, in.Queue, t, "produce")
			case ir.Consume, ir.ConsumeSync:
				werr = claim(consOf, in.Queue, t, "consume")
			}
		})
		if werr != nil {
			return nil, nil, fmt.Errorf("queue ownership: %w", werr)
		}
	}
	for _, cm := range prog.Comms {
		if prodOf[cm.Queue] >= 0 && prodOf[cm.Queue] != cm.Src {
			return nil, nil, fmt.Errorf(
				"queue ownership: comm table says queue %d is produced by thread %d, code says thread %d",
				cm.Queue, cm.Src, prodOf[cm.Queue])
		}
		if consOf[cm.Queue] >= 0 && consOf[cm.Queue] != cm.Dst {
			return nil, nil, fmt.Errorf(
				"queue ownership: comm table says queue %d is consumed by thread %d, code says thread %d",
				cm.Queue, cm.Dst, consOf[cm.Queue])
		}
	}
	return prodOf, consOf, nil
}

// checkRunInvariants asserts the internal invariants of one successful
// multi-threaded run.
func checkRunInvariants(rep *Report, caseName, config string, mt *interp.MTResult, prodOf, consOf []int) {
	if mt.Steps != mt.Stats.Total() {
		rep.add(caseName, config, InvariantViolation, fmt.Sprintf(
			"step accounting: %d steps issued but role counts total %d", mt.Steps, mt.Stats.Total()))
	}
	for q, qs := range mt.PerQueue {
		if qs.Produced != qs.Consumed {
			rep.add(caseName, config, InvariantViolation, fmt.Sprintf(
				"queue balance: queue %d produced %d values, consumed %d", q, qs.Produced, qs.Consumed))
		}
	}
	for t := range mt.PerThread {
		var wantProd, wantCons int64
		for q, qs := range mt.PerQueue {
			if prodOf[q] == t {
				wantProd += qs.Produced
			}
			if consOf[q] == t {
				wantCons += qs.Consumed
			}
		}
		pt := mt.PerThread[t]
		if gotProd := pt.Produce + pt.ProduceSync; gotProd != wantProd {
			rep.add(caseName, config, InvariantViolation, fmt.Sprintf(
				"thread %d produced %d values but owns queues totalling %d", t, gotProd, wantProd))
		}
		if gotCons := pt.Consume + pt.ConsumeSync; gotCons != wantCons {
			rep.add(caseName, config, InvariantViolation, fmt.Sprintf(
				"thread %d consumed %d values but owns queues totalling %d", t, gotCons, wantCons))
		}
	}
}

// checkScheduleIndependence asserts that dynamic counts match the
// reference run: any divergence means some instruction's execution
// depended on the interleaving.
func checkScheduleIndependence(rep *Report, caseName, config, refConfig string, mt, ref *interp.MTResult) {
	if mt.Stats != ref.Stats {
		rep.add(caseName, config, InvariantViolation, fmt.Sprintf(
			"dynamic instruction counts depend on the schedule: %+v here, %+v under %s",
			mt.Stats, ref.Stats, refConfig))
	}
	for q := range mt.PerQueue {
		if q < len(ref.PerQueue) && mt.PerQueue[q] != ref.PerQueue[q] {
			rep.add(caseName, config, InvariantViolation, fmt.Sprintf(
				"queue %d traffic depends on the schedule: %+v here, %+v under %s",
				q, mt.PerQueue[q], ref.PerQueue[q], refConfig))
		}
	}
}

// diffVals compares two value vectors and renders the first few
// differences ("" when equal).
func diffVals(what string, got, want []int64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s count: got %d, want %d", what, len(got), len(want))
	}
	var diffs []string
	extra := 0
	for i := range want {
		if got[i] != want[i] {
			if len(diffs) < 3 {
				diffs = append(diffs, fmt.Sprintf("%s[%d] = %d, want %d", what, i, got[i], want[i]))
			} else {
				extra++
			}
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	s := strings.Join(diffs, "; ")
	if extra > 0 {
		s += fmt.Sprintf(" (and %d more)", extra)
	}
	return s
}
