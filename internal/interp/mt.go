package interp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/ring"
)

// ErrDeadlock is returned when every unfinished thread is blocked on a
// queue operation — which the MTCG construction guarantees cannot happen
// for a well-formed plan, so hitting it indicates a placement bug.
var ErrDeadlock = errors.New("interp: deadlock: all threads blocked")

// ErrBadSchedule is returned when a Scheduler picks a thread that is not
// runnable — a policy bug, not a program bug.
var ErrBadSchedule = errors.New("interp: scheduler picked a non-runnable thread")

// ErrBadProgram is returned when a thread references a queue outside
// [0, NumQueues) — a mis-specified plan. RunMT validates up front so a
// corrupted program is a typed error, never an index panic mid-run.
var ErrBadProgram = errors.New("interp: program references queue out of range")

// DefaultQueueCap is the queue depth used when MTConfig.QueueCap is unset:
// the 32-entry synchronization-array queues the paper evaluates DSWP with.
// The paper's other partitioners use single-entry queues; the experiment
// pipeline selects per-partitioner depths via partition.QueueCapFor.
const DefaultQueueCap = 32

// CommStats counts dynamic instructions by role. Compute covers the
// original program's instructions (including control flow); the other
// fields are multi-threading overhead.
type CommStats struct {
	Compute     int64
	Produce     int64
	Consume     int64
	ProduceSync int64
	ConsumeSync int64
	// DupBranch counts executions of branches replicated into a thread
	// that does not own them (transitive control dependences).
	DupBranch int64
}

// Comm returns the number of communication/synchronization instructions —
// the quantity Figures 1 and 7 report.
func (s CommStats) Comm() int64 {
	return s.Produce + s.Consume + s.ProduceSync + s.ConsumeSync
}

// MemSync returns the number of memory synchronization instructions.
func (s CommStats) MemSync() int64 { return s.ProduceSync + s.ConsumeSync }

// Total returns all dynamic instructions.
func (s CommStats) Total() int64 { return s.Compute + s.Comm() + s.DupBranch }

// Add accumulates o into s.
func (s *CommStats) Add(o CommStats) {
	s.Compute += o.Compute
	s.Produce += o.Produce
	s.Consume += o.Consume
	s.ProduceSync += o.ProduceSync
	s.ConsumeSync += o.ConsumeSync
	s.DupBranch += o.DupBranch
}

// QueueStats counts the dynamic traffic through one synchronization-array
// queue. At normal termination Produced == Consumed for every queue (every
// value produced is consumed); the differential oracle asserts this.
// Depth high-water marks live in MTResult.QueueHWM, not here: traffic
// counts are schedule-independent (the oracle compares them across
// policies) while occupancy depends on the interleaving.
type QueueStats struct {
	Produced int64
	Consumed int64
}

// SchedStats counts scheduler-policy activity during one run: how many
// turns the policy handed out and how many of them found the chosen thread
// blocked on a queue. Picks == BlockedTurns + issued steps.
type SchedStats struct {
	// Policy is the scheduling policy's name.
	Policy string
	// Picks is the number of turns granted, one per issued instruction and
	// one per blocked turn: RunMT's Scheduler.Pick calls.
	Picks int64
	// BlockedTurns is the number of picks whose thread could not step
	// because its queue operation would block.
	BlockedTurns int64
}

// MTConfig describes a multi-threaded program to execute.
type MTConfig struct {
	Threads   []*ir.Function
	NumQueues int
	// QueueCap is the queue depth. The paper models 32-entry queues for
	// DSWP and single-entry queues for the other partitioners; <= 0
	// defaults to DefaultQueueCap (32). Use partition.QueueCapFor to pick
	// the paper's depth for a given partitioner.
	QueueCap int
	// Sched picks which runnable thread steps next; nil means run-to-block,
	// the Adversarial policy: the picked thread keeps issuing until it
	// blocks on a queue or returns. Any correct MTCG program yields
	// identical live-outs, memory and instruction counts under every policy,
	// so the default is the policy with the fewest thread switches.
	Sched Scheduler
	// Assign is the original partition; used to classify replicated
	// branches (via Instr.Orig).
	Assign map[*ir.Instr]int
	Args   []int64
	Mem    Memory
	// MaxSteps bounds total dynamic instructions across threads. Only
	// issued instructions count: turns where a thread is blocked on a
	// full or empty queue do not consume budget.
	MaxSteps int64
	// Ctx, when non-nil, is polled every checkEvery steps; a done context
	// aborts the run with its error. Nil means run to completion.
	Ctx context.Context
	// Metrics, when non-nil, receives the finished run's totals — per-role
	// instruction counters, per-queue traffic counters and depth high-water
	// gauges, and scheduler-policy counts — published once from the MTResult
	// when the run succeeds. A run that fails publishes nothing, as in the
	// simulator (sim.Observer.Metrics).
	Metrics *obs.Scope
	// Trace, when non-nil, receives a per-queue occupancy timeline:
	// counter events named "q<N>" with series "depth", timestamped in
	// issued steps.
	Trace *obs.Lane
}

// MTResult is the outcome of a multi-threaded run.
type MTResult struct {
	// LiveOuts are the final live-out values, read from the thread that
	// owns the original Ret.
	LiveOuts []int64
	Mem      Memory
	// PerThread holds instruction-role counts for each thread.
	PerThread []CommStats
	// Stats is the sum over threads.
	Stats CommStats
	// Steps is the number of instructions issued across all threads; it
	// always equals Stats.Total().
	Steps int64
	// PerQueue counts the values produced into and consumed from each
	// queue (synchronization tokens included).
	PerQueue []QueueStats
	// QueueHWM is each queue's depth high-water mark: the largest number
	// of values buffered at once, tracked per (producer, consumer) queue
	// — never folded into one global maximum — so DSWP's 32-entry queues
	// and the single-entry queues of the other partitioners report
	// separately. Unlike PerQueue traffic counts, occupancy depends on
	// the schedule.
	QueueHWM []int64
	// Sched counts scheduler-policy activity.
	Sched SchedStats
}

// publish adds the finished run's counts to s: the one place the
// interpreter's ledger (the MTResult) is copied into the metrics registry.
func (r *MTResult) publish(s *obs.Scope) {
	if s == nil {
		return
	}
	s.Counter("steps").Add(r.Steps)
	s.Counter("compute").Add(r.Stats.Compute)
	s.Counter("dup_branch").Add(r.Stats.DupBranch)
	s.Counter("produce").Add(r.Stats.Produce)
	s.Counter("consume").Add(r.Stats.Consume)
	s.Counter("produce_sync").Add(r.Stats.ProduceSync)
	s.Counter("consume_sync").Add(r.Stats.ConsumeSync)
	s.Counter("sched.picks").Add(r.Sched.Picks)
	s.Counter("sched.blocked_turns").Add(r.Sched.BlockedTurns)
	for q, qs := range r.PerQueue {
		sq := s.Child(fmt.Sprintf("queue.%d", q))
		sq.Counter("produced").Add(qs.Produced)
		sq.Counter("consumed").Add(qs.Consumed)
		sq.Gauge("hwm").SetMax(r.QueueHWM[q])
	}
}

// runObs is the optional queue-occupancy timeline threaded through the
// interpreter loop; a nil *runObs records nothing.
type runObs struct {
	lane   *obs.Lane
	qnames []string // cached "q<N>" counter-track names for the lane
}

func newRunObs(cfg *MTConfig) *runObs {
	if cfg.Trace == nil {
		return nil
	}
	o := &runObs{lane: cfg.Trace}
	for q := 0; q < cfg.NumQueues; q++ {
		o.qnames = append(o.qnames, fmt.Sprintf("q%d", q))
	}
	return o
}

// queueDepth records a queue's occupancy after a produce or consume.
func (o *runObs) queueDepth(q int, step int64, depth int) {
	if o != nil {
		o.lane.Counter(o.qnames[q], step, "depth", int64(depth))
	}
}

// threadState is one thread's execution context: its registers and one
// program counter into its decoded stream, which stepThread advances.
type threadState struct {
	regs []int64
	pc   int // position in the thread's decoded stream
	done bool
	outs []int64 // live-outs captured at this thread's Ret
}

// ret finishes the thread at Ret instruction in, capturing its live-outs.
func (ts *threadState) ret(in *ir.Instr) {
	ts.done = true
	for _, r := range in.Srcs {
		ts.outs = append(ts.outs, ts.regs[r])
	}
}

// RunMT executes a multi-threaded program over blocking synchronization-
// array queues. Thread interleaving is chosen by cfg.Sched (run-to-block by
// default; every policy here is deterministic, so runs are reproducible); a
// thread that cannot step because its queue is full or empty is set aside
// until another thread makes progress. It returns ErrDeadlock if no thread
// can make progress and ErrStepLimit if cfg.MaxSteps issued instructions
// are exhausted.
func RunMT(cfg MTConfig) (*MTResult, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	sched := cfg.Sched
	if sched == nil {
		sched = Adversarial()
	}

	nThreads := len(cfg.Threads)
	queues := make([]ring.Buf[int64], cfg.NumQueues)
	for i := range queues {
		queues[i].Init(cfg.QueueCap)
	}
	threads := make([]threadState, nThreads)
	streams := make([]ir.Stream, nThreads)
	for i, fn := range cfg.Threads {
		if len(cfg.Args) != len(fn.Params) {
			return nil, fmt.Errorf("interp: thread %s takes %d params, got %d",
				fn.Name, len(fn.Params), len(cfg.Args))
		}
		ts := &threads[i]
		ts.regs = make([]int64, int(fn.MaxReg())+1)
		// One pass over the decoded thread validates its queues and marks
		// the replicated branches in the record's Tag, which stepThread reads
		// in passing.
		st := &streams[i]
		st.Decode(fn)
		for pc := range st.Code {
			di := &st.Code[pc]
			switch {
			case di.Op.IsComm():
				if in := st.Instrs[pc]; in.Queue < 0 || in.Queue >= cfg.NumQueues {
					return nil, fmt.Errorf("%w: thread %s: %v references queue %d of %d",
						ErrBadProgram, fn.Name, in, in.Queue, cfg.NumQueues)
				}
			case di.Op == ir.Br:
				if in := st.Instrs[pc]; in.Orig != nil && cfg.Assign[in.Orig] != i {
					di.Tag = 1
				}
			}
		}
		for j, p := range fn.Params {
			ts.regs[p] = cfg.Args[j]
		}
	}

	res := &MTResult{
		Mem:       cfg.Mem,
		PerThread: make([]CommStats, nThreads),
		PerQueue:  make([]QueueStats, cfg.NumQueues),
		QueueHWM:  make([]int64, cfg.NumQueues),
		Sched:     SchedStats{Policy: sched.Name()},
	}
	x := &mtExec{
		queues: queues,
		qcap:   cfg.QueueCap,
		mem:    cfg.Mem,
		res:    res,
		ro:     newRunObs(&cfg),
	}

	// blockedAt[t] is the number of issued steps when t last failed to
	// step: t is blocked while it equals steps, that is, until some thread
	// issues an instruction (the only event that can unblock a queue
	// operation).
	blockedAt := make([]int64, nThreads)
	lastRan := make([]int64, nThreads)
	for i := range lastRan {
		blockedAt[i], lastRan[i] = -1, -1
	}
	runnable := make([]int, 0, nThreads)

	var steps int64
	for {
		// The threads neither finished nor blocked, in ascending order.
		runnable = runnable[:0]
		live := false
		for ti := range threads {
			if !threads[ti].done {
				live = true
				if blockedAt[ti] != steps {
					runnable = append(runnable, ti)
				}
			}
		}
		if len(runnable) == 0 {
			if live {
				return nil, fmt.Errorf("%w\n%s", ErrDeadlock, describeBlocked(threads, streams, queues, cfg.QueueCap))
			}
			break
		}
		ti := sched.Pick(runnable, lastRan, steps)
		if ti < 0 || ti >= nThreads || threads[ti].done || blockedAt[ti] == steps {
			return nil, fmt.Errorf("%w: %s picked thread %d (runnable %v)",
				ErrBadSchedule, sched.Name(), ti, runnable)
		}
		res.Sched.Picks++
		stepped, err := x.stepThread(&threads[ti], &streams[ti], ti, &res.PerThread[ti], steps)
		if err != nil {
			return nil, err
		}
		if !stepped {
			blockedAt[ti] = steps
			res.Sched.BlockedTurns++
			continue
		}
		lastRan[ti] = steps
		steps++
		if steps > cfg.MaxSteps {
			return nil, fmt.Errorf("%w (multi-threaded, %d steps)", ErrStepLimit, steps)
		}
		if steps&(checkEvery-1) == 0 && cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("interp: multi-threaded run after %d steps: %w", steps, err)
			}
		}
	}

	return res.finish(threads, steps, cfg.Metrics), nil
}

// finish closes the ledger of a successful run — issued steps, live-outs,
// the per-thread role counts summed — and publishes it to m.
func (r *MTResult) finish(threads []threadState, steps int64, m *obs.Scope) *MTResult {
	r.Steps = steps
	for ti := range threads {
		if threads[ti].outs != nil {
			r.LiveOuts = threads[ti].outs
		}
		r.Stats.Add(r.PerThread[ti])
	}
	r.publish(m)
	return r
}

// memFault renders the out-of-range access at pc of thread ti's stream st:
// exec re-derives the address and words the error.
func (x *mtExec) memFault(st *ir.Stream, ti, pc int, regs []int64) error {
	in := st.Instrs[pc]
	return fmt.Errorf("interp: thread %d: %v: %w", ti, in, exec(in, regs, x.mem))
}

// mtExec bundles the state stepThread touches every issued instruction.
// Passing one pointer (instead of an MTConfig value, which the compiler
// copied on every call) keeps the per-step overhead at a register's worth.
type mtExec struct {
	queues []ring.Buf[int64]
	qcap   int
	mem    Memory
	res    *MTResult
	ro     *runObs
}

// stepThread executes at most one instruction of ts — the record at ts.pc
// in its decoded stream st — returning whether it made progress (false when
// blocked on a queue). x.res receives per-queue traffic and depth
// high-water bookkeeping; step is the issued-step timestamp for x.ro's
// (optional) queue occupancy timeline.
func (x *mtExec) stepThread(ts *threadState, st *ir.Stream, ti int, stats *CommStats, step int64) (bool, error) {
	di, regs := &st.Code[ts.pc], ts.regs
	switch di.Op {
	case ir.Produce, ir.ProduceSync:
		qb := &x.queues[di.Queue]
		if qb.Len() >= x.qcap {
			return false, nil // queue full
		}
		v := int64(0)
		if di.Op == ir.Produce {
			v = regs[di.S0]
			stats.Produce++
		} else {
			stats.ProduceSync++
		}
		qb.Push(v)
		x.res.PerQueue[di.Queue].Produced++
		if d := int64(qb.Len()); d > x.res.QueueHWM[di.Queue] {
			x.res.QueueHWM[di.Queue] = d
		}
		x.ro.queueDepth(int(di.Queue), step, qb.Len())
		ts.pc++
	case ir.Consume, ir.ConsumeSync:
		qb := &x.queues[di.Queue]
		if qb.Len() == 0 {
			return false, nil // queue empty
		}
		v := qb.Pop()
		x.res.PerQueue[di.Queue].Consumed++
		if di.Op == ir.Consume {
			regs[di.Dst] = v
			stats.Consume++
		} else {
			stats.ConsumeSync++
		}
		x.ro.queueDepth(int(di.Queue), step, qb.Len())
		ts.pc++
	case ir.Br:
		if di.Tag != 0 {
			stats.DupBranch++
		} else {
			stats.Compute++
		}
		if regs[di.S0] != 0 {
			ts.pc = di.Taken()
		} else {
			ts.pc = di.Fall()
		}
	case ir.Jump:
		stats.Compute++
		ts.pc = di.Taken()
	case ir.Ret:
		stats.Compute++
		ts.ret(st.Instrs[ts.pc])
	case ir.Load:
		stats.Compute++
		a := regs[di.S0] + di.Imm
		if a < 0 || a >= int64(len(x.mem)) {
			return false, x.memFault(st, ti, ts.pc, regs)
		}
		regs[di.Dst] = x.mem[a]
		ts.pc++
	case ir.Store:
		stats.Compute++
		a := regs[di.S1] + di.Imm
		if a < 0 || a >= int64(len(x.mem)) {
			return false, x.memFault(st, ti, ts.pc, regs)
		}
		x.mem[a] = regs[di.S0]
		ts.pc++
	default:
		stats.Compute++
		if in := st.Instrs[ts.pc]; !in.Eval(regs) {
			return false, fmt.Errorf("interp: thread %d: %v: %w", ti, in, errOpcode(in.Op))
		}
		ts.pc++
	}
	return true, nil
}

// describeBlocked renders a deadlock diagnostic. The output is fully
// deterministic — threads in index order, each with its block, position,
// instruction, and the occupancy of the queue it is blocked on — so a
// deadlock report can be pasted into a regression test or bug report
// verbatim.
func describeBlocked(threads []threadState, streams []ir.Stream, queues []ring.Buf[int64], qcap int) string {
	s := ""
	for ti := range threads {
		ts := &threads[ti]
		if ts.done {
			s += fmt.Sprintf("thread %d: done\n", ti)
			continue
		}
		in := streams[ti].Instrs[ts.pc]
		if !in.Op.IsComm() {
			s += fmt.Sprintf("thread %d: stopped at %s[%d]: %v\n", ti, in.Block().Name, in.Index(), in)
			continue
		}
		state := "empty"
		if qlen := queues[in.Queue].Len(); qlen >= qcap {
			state = "full"
		} else if qlen > 0 {
			state = fmt.Sprintf("%d buffered", qlen)
		}
		s += fmt.Sprintf("thread %d: blocked at %s[%d]: %v (queue %d: %d/%d, %s)\n",
			ti, in.Block().Name, in.Index(), in, in.Queue, queues[in.Queue].Len(), qcap, state)
	}
	return s
}
