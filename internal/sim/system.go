package sim

import (
	"errors"
	"fmt"

	"repro/internal/attr"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/ring"
)

// ErrNoProgress is returned when no core issues an instruction for an
// implausibly long window, indicating a queue-placement deadlock.
var ErrNoProgress = errors.New("sim: no core made progress")

// ErrBadProgram is returned when a thread references a queue outside the
// program's queue range — a mis-specified plan. Validated up front so a
// corrupted program is a typed error, never an index panic mid-simulation.
var ErrBadProgram = errors.New("sim: program references queue out of range")

// ErrCycleLimit is returned when the cycle budget is exhausted.
var ErrCycleLimit = errors.New("sim: cycle limit exceeded")

// CoreStats aggregates one core's activity.
type CoreStats struct {
	Instrs   int64
	Mem      MemStats
	Mispreds int64
	// IssueStallCycles counts cycles where the core issued nothing while
	// still having work.
	IssueStallCycles int64
	// Produces and Consumes count dynamic synchronization-array operations
	// (synchronization tokens included). The differential oracle checks
	// they agree with the multi-threaded interpreter's counts.
	Produces int64
	Consumes int64
}

// QueueStats aggregates one synchronization-array queue's activity.
// Occupancy is tracked per (producer, consumer) queue, never folded into
// a global maximum, so DSWP's deep queues and the single-entry queues of
// the other partitioners report separately.
type QueueStats struct {
	Produced int64
	Consumed int64
	// HighWater is the largest number of values in flight (produced but
	// not yet consumed) at once.
	HighWater int64
}

// Result is the outcome of a timed run.
type Result struct {
	Cycles   int64
	PerCore  []CoreStats
	PerQueue []QueueStats
	LiveOuts []int64
	Mem      []int64
	// Attr is the cycle attribution (Observer.Attr runs only): every
	// core-cycle tagged with a cause bucket, per core, per static
	// instruction, and per queue arc. Per-core bucket sums equal Cycles
	// exactly — attribution is observational and conserves by
	// construction.
	Attr *attr.Run
}

// IPC returns total instructions per cycle across cores.
func (r *Result) IPC() float64 {
	var n int64
	for _, c := range r.PerCore {
		n += c.Instrs
	}
	if r.Cycles == 0 {
		return 0
	}
	return float64(n) / float64(r.Cycles)
}

// saEntry is one value in flight through a synchronization-array queue:
// the value, the cycle it becomes visible to the consumer, and (flow-
// tracing runs only) the trace flow-event binding id it was produced
// under, so the matching consume can close the produce→consume arrow.
type saEntry struct {
	val     int64
	arrival int64
	flow    int64
}

// saQueue is one synchronization-array queue's timing+value state: a ring
// sized by the architectural queue capacity, so occupancy-bounded traffic
// never reallocates (the previous slice representation retained every
// value ever produced — O(traffic) memory on a queue that is
// architecturally qcap deep).
type saQueue struct {
	ring.Buf[saEntry]
}

// core is one in-order processor.
type core struct {
	id    int
	regs  []int64
	ready []int64 // reg -> cycle the value is available
	// code is the core's thread decoded (Tag: issue-port class) and pc its
	// position in it: the one cursor stepCore and stepCoreFast both advance.
	code ir.Stream
	pc   int
	done bool
	// fetchReady is the first cycle issue may resume after a mispredict.
	fetchReady int64
	caches     *hierarchy
	// inval is the precomputed list of other cores' private caches this
	// core's stores must invalidate (write-invalidate coherence). Computed
	// once at setup so the Store hot path never allocates.
	inval []*hierarchy
	pred  []uint8 // 2-bit predictor state per instruction ID
	outs  []int64
	stats CoreStats

	// Block memos (non-attribution runs): when issue blocks with nothing
	// issued, stepCore records the one condition that must change before
	// the core can issue again, and the cycle loop requalifies it with a
	// single compare instead of a full stepCore call. wake is the first
	// cycle an operand/front-end stall can clear (register ready times are
	// only ever written by the core itself, so the bound is exact);
	// blockedEmptyQ/blockedFullQ name the queue whose occupancy must
	// change (-1 when not queue-blocked). Attribution runs bypass the
	// memos — they need stepCore's per-cycle cause tag.
	wake          int64
	blockedEmptyQ int32
	blockedFullQ  int32

	// readyCause/readyQueue (attribution runs only) remember why each
	// register's value is late: the attr.Bucket of the producing
	// instruction class (DepStall, Memory, CommLatency) and the queue a
	// consumed value travelled through (-1 otherwise). A stall-on-use
	// cycle is blamed on the cause of the latest-arriving unready operand.
	readyCause []uint8
	readyQueue []int32
}

// system couples the cores, the shared L3, and the SA.
type system struct {
	cfg  Config
	qcap int // cfg.QueueCap, read on the hot path
	// doneCores counts finished cores so the cycle loop terminates on a
	// counter compare instead of scanning every core every cycle.
	doneCores int
	cores     []*core
	queues    []*saQueue
	qstats    []QueueStats
	mem       []int64
	err       error // first memory fault

	// Hot-path tables, derived from cfg once at setup so the issue loop
	// performs no per-instruction switch dispatch or per-call array
	// construction. limits is the port budget per class; lat maps every
	// opcode to its result latency.
	limits [4]int
	lat    [256]int64

	// Observability sinks (all optional). saLane carries queue-occupancy
	// counter tracks; coreLanes carry per-core coalesced stall spans.
	saLane    *obs.Lane
	coreLanes []*obs.Lane
	qnames    []string // cached "q<N>" counter-track names

	// Attribution sinks (all optional, observational only).
	attr    *attr.Run   // cycle-cause tally, conserving per core
	events  func(Event) // per-issued-instruction stream for the profiler
	flows   bool        // emit produce→consume flow events on coreLanes
	flowSeq int64       // deterministic flow-event binding ids
}

// Event is one issued instruction instance, streamed to Observer.Events as
// the simulation advances. The profiler (internal/profile) reconstructs the
// run's dynamic dependence graph from this stream: In identifies the static
// instruction, Issue/Done bound its execution in cycles, and Queue names the
// synchronization-array queue a communication instruction touched. Events are emitted in deterministic order: cycle-major, core-minor,
// issue-slot-minor.
type Event struct {
	// Core is the issuing core.
	Core int
	// In is the issued static instruction (of the core's thread function);
	// nil for the self-loop ir.Stream.Decode closes an unterminated block
	// with, which only an unverified function ever reaches.
	In *ir.Instr
	// Issue is the cycle the instruction issued.
	Issue int64
	// Done is the cycle the instruction's result becomes usable: operand
	// ready time for value-producing instructions, SA arrival for
	// produces, branch-resolution (including any mispredict bubble) for
	// branches, Issue+1 otherwise.
	Done int64
	// Queue is the synchronization-array queue touched, or -1 for
	// non-communication instructions.
	Queue int
}

// Observer carries the optional observability sinks for one simulation
// run. It is passed alongside Config rather than inside it so Config
// stays comparable (the experiment engine memoizes simulation results
// keyed on it). All timestamps recorded through an Observer are simulator
// cycles, never wall-clock.
type Observer struct {
	// Metrics receives end-of-run totals: cycles, per-core
	// core<i>.{instrs,stall_cycles,produces,consumes,mispreds}, and
	// per-queue queue.<q>.{produced,consumed,hwm}.
	Metrics *obs.Scope
	// Trace receives the cycle timeline: coalesced issue-stall spans on
	// one lane per core (tid = core ID + 1) and queue-occupancy counter
	// series on the synchronization-array lane (tid 0).
	Trace *obs.Trace
	// Pid is the trace process ID the run's lanes are placed under; the
	// caller labels it with Trace.ProcessName.
	Pid int
	// Attr enables cycle attribution: every core-cycle is tagged with a
	// cause bucket into Result.Attr, conserving exactly (per-core bucket
	// sums equal Result.Cycles). Attribution is observational — it never
	// changes timing.
	Attr bool
	// Events, when non-nil, receives one Event per issued instruction, in
	// deterministic (cycle, core, issue-slot) order. The profiler uses the
	// stream to reconstruct the run's dynamic dependence graph.
	Events func(Event)
	// Flows additionally emits produce→consume flow events (and the
	// 1-cycle comm spans they bind to) on the per-core trace lanes, so
	// Perfetto draws cross-core arrows for every matched SA pair.
	// Requires Trace.
	Flows bool
}

// Run simulates the threads to completion on the configured machine and
// returns timing and functional results. The thread functions must all take
// the same parameters; mem is the shared memory image (mutated).
func Run(cfg Config, threads []*ir.Function, args []int64, mem []int64, maxCycles int64) (*Result, error) {
	return RunObserved(cfg, threads, args, mem, maxCycles, nil)
}

// RunObserved is Run with observability: per-queue occupancy and per-core
// stall timelines stream into ob's sinks as the simulation advances. A nil
// ob (or nil fields) records nothing and is exactly Run.
func RunObserved(cfg Config, threads []*ir.Function, args []int64, mem []int64, maxCycles int64, ob *Observer) (*Result, error) {
	if len(threads) > cfg.Cores {
		return nil, fmt.Errorf("sim: %d threads exceed %d cores", len(threads), cfg.Cores)
	}
	numQueues := 0
	for _, f := range threads {
		if f.NumQueues > numQueues {
			numQueues = f.NumQueues
		}
	}
	if numQueues > cfg.NumQueues {
		return nil, fmt.Errorf("sim: program needs %d queues, hardware has %d (run queue allocation)",
			numQueues, cfg.NumQueues)
	}
	// Each level keeps only the ways the image's lines can fill (exact;
	// see imageWays). The private levels' ways are the same for every core.
	words := len(mem)
	l1Ways := imageWays(cfg.L1Sets, cfg.L1Ways, cfg.L1Line, words)
	l2Ways := imageWays(cfg.L2Sets, cfg.L2Ways, cfg.L2Line, words)
	l3 := newCache(cfg.L3Sets, imageWays(cfg.L3Sets, cfg.L3Ways, cfg.L3Line, words), cfg.L3Line)
	sys := &system{cfg: cfg, qcap: cfg.QueueCap, mem: mem}
	for i, f := range threads {
		if len(args) != len(f.Params) {
			return nil, fmt.Errorf("sim: thread %s takes %d params, got %d", f.Name, len(f.Params), len(args))
		}
		c := &core{
			id:            i,
			regs:          make([]int64, int(f.MaxReg())+1),
			ready:         make([]int64, int(f.MaxReg())+1),
			pred:          make([]uint8, f.NumInstrIDs()),
			blockedEmptyQ: -1,
			blockedFullQ:  -1,
			caches: &hierarchy{
				l1:  newCache(cfg.L1Sets, l1Ways, cfg.L1Line),
				l2:  newCache(cfg.L2Sets, l2Ways, cfg.L2Line),
				l3:  l3,
				cfg: &cfg,
			},
		}
		for j, p := range f.Params {
			c.regs[p] = args[j]
		}
		// One pass over the decoded thread validates its queues and tags
		// each record with its issue-port class.
		c.code.Decode(f)
		for pc := range c.code.Code {
			di := &c.code.Code[pc]
			if in := c.code.Instrs[pc]; di.Op.IsComm() && (in.Queue < 0 || in.Queue >= numQueues) {
				return nil, fmt.Errorf("%w: thread %s: %v references queue %d of %d",
					ErrBadProgram, f.Name, in, in.Queue, numQueues)
			}
			di.Tag = uint8(portTab[di.Op])
		}
		sys.cores = append(sys.cores, c)
	}
	for _, c := range sys.cores {
		for _, o := range sys.cores {
			if o != c {
				c.inval = append(c.inval, o.caches)
			}
		}
	}
	sys.limits = [4]int{cfg.ALUPorts, cfg.MemPorts, cfg.FPPorts, cfg.BranchPorts}
	for i := range sys.lat {
		sys.lat[i] = sys.latencyOf(ir.Op(i))
	}
	sys.queues = make([]*saQueue, numQueues)
	for i := range sys.queues {
		sys.queues[i] = &saQueue{}
		sys.queues[i].Init(sys.qcap)
	}
	sys.qstats = make([]QueueStats, numQueues)
	if ob != nil && ob.Trace != nil {
		sys.saLane = ob.Trace.Lane(ob.Pid, 0)
		ob.Trace.ThreadName(ob.Pid, 0, "sa-queues")
		sys.qnames = make([]string, numQueues)
		for i := range sys.qnames {
			sys.qnames[i] = fmt.Sprintf("q%d", i)
		}
		sys.coreLanes = make([]*obs.Lane, len(sys.cores))
		for i := range sys.cores {
			sys.coreLanes[i] = ob.Trace.Lane(ob.Pid, i+1)
			ob.Trace.ThreadName(ob.Pid, i+1, fmt.Sprintf("core%d", i))
		}
		sys.flows = ob.Flows
	}
	if ob != nil {
		sys.events = ob.Events
		if ob.Attr {
			ids := make([]int, len(threads))
			for i, f := range threads {
				ids[i] = f.NumInstrIDs()
			}
			sys.attr = attr.NewRun(ids, numQueues)
			for _, c := range sys.cores {
				c.readyCause = make([]uint8, len(c.ready))
				c.readyQueue = make([]int32, len(c.ready))
				for r := range c.readyQueue {
					c.readyQueue[r] = -1
				}
			}
		}
	}

	cycle, err := sys.run(maxCycles)
	if err != nil {
		return nil, err
	}

	res := &Result{Cycles: cycle, PerQueue: sys.qstats, Mem: mem, Attr: sys.attr}
	for _, c := range sys.cores {
		res.PerCore = append(res.PerCore, c.stats)
		if c.outs != nil {
			res.LiveOuts = c.outs
		}
	}
	if ob != nil && ob.Metrics != nil {
		m := ob.Metrics
		m.Gauge("cycles").Set(cycle)
		for i, c := range sys.cores {
			cs := m.Child(fmt.Sprintf("core%d", i))
			cs.Counter("instrs").Add(c.stats.Instrs)
			cs.Counter("stall_cycles").Add(c.stats.IssueStallCycles)
			cs.Counter("produces").Add(c.stats.Produces)
			cs.Counter("consumes").Add(c.stats.Consumes)
			cs.Counter("mispreds").Add(c.stats.Mispreds)
		}
		for q, st := range sys.qstats {
			qs := m.Child(fmt.Sprintf("queue.%d", q))
			qs.Counter("produced").Add(st.Produced)
			qs.Counter("consumed").Add(st.Consumed)
			qs.Gauge("hwm").SetMax(st.HighWater)
		}
	}
	return res, nil
}

// run executes the cycle loop to completion over this system's cores and
// returns the cycle count. Observability hooks (attr, trace lanes, event
// stream) are guarded behind nil checks; a run with none of them takes
// runFast and pays no per-cycle callback or allocation cost.
func (s *system) run(maxCycles int64) (int64, error) {
	// stallStart[i] is the cycle core i's current issue-stall episode
	// began, or -1 when issuing; consecutive stall cycles coalesce into
	// one trace span per episode.
	stallStart := make([]int64, len(s.cores))
	for i := range stallStart {
		stallStart[i] = -1
	}

	stallLimit := s.cfg.StallLimit
	if stallLimit <= 0 {
		stallLimit = 2_000_000
	}

	// Block memos are exact but skip stepCore's per-cycle cause analysis,
	// so attribution runs take the full call every cycle. With no sinks at
	// all the whole cycle loop reduces to memo requalification plus
	// stepCoreFast: runFast, without the per-cycle lane and attribution
	// branches.
	memo := s.attr == nil
	if memo && s.events == nil && s.saLane == nil && s.coreLanes == nil && !s.flows {
		return s.runFast(maxCycles, stallLimit)
	}

	var cycle, lastProgress int64
	for {
		// Termination is checked before the cycle is simulated so that
		// attribution sees exactly Result.Cycles iterations: every core
		// gets exactly one bucket note per counted cycle.
		if s.doneCores == len(s.cores) {
			break
		}
		saPortsUsed := 0
		anyIssued := false
		for ci, c := range s.cores {
			if c.done {
				if s.attr != nil {
					s.attr.Note(ci, attr.Idle, -1, -1)
				}
				continue
			}
			if memo {
				// Requalify a memoized block without entering stepCore: the
				// recorded condition is exactly what stepCore would find.
				if cycle < c.wake {
					c.stats.IssueStallCycles++
					if s.coreLanes != nil && stallStart[ci] < 0 {
						stallStart[ci] = cycle
					}
					continue
				}
				if q := c.blockedEmptyQ; q >= 0 {
					if s.queues[q].Len() == 0 {
						c.stats.IssueStallCycles++
						if s.coreLanes != nil && stallStart[ci] < 0 {
							stallStart[ci] = cycle
						}
						continue
					}
					c.blockedEmptyQ = -1
				}
				if q := c.blockedFullQ; q >= 0 {
					if s.queues[q].Len() >= s.qcap {
						c.stats.IssueStallCycles++
						if s.coreLanes != nil && stallStart[ci] < 0 {
							stallStart[ci] = cycle
						}
						continue
					}
					c.blockedFullQ = -1
				}
			}
			issued, tag := s.stepCore(c, cycle, &saPortsUsed)
			if s.attr != nil {
				s.attr.Note(ci, tag.bucket, tag.instr, tag.queue)
			}
			if issued > 0 {
				anyIssued = true
				if stallStart[ci] >= 0 {
					s.coreLanes[ci].SpanAt("stall", "sim", stallStart[ci], cycle-stallStart[ci])
					stallStart[ci] = -1
				}
			} else {
				c.stats.IssueStallCycles++
				if s.coreLanes != nil && stallStart[ci] < 0 {
					stallStart[ci] = cycle
				}
			}
		}
		if s.err != nil {
			return 0, s.err
		}
		if anyIssued {
			lastProgress = cycle
		}
		if cycle-lastProgress > stallLimit {
			return 0, fmt.Errorf("%w for %d cycles at cycle %d", ErrNoProgress, cycle-lastProgress, cycle)
		}
		cycle++
		if cycle > maxCycles {
			return 0, fmt.Errorf("%w (%d cycles)", ErrCycleLimit, maxCycles)
		}
	}

	// Close any stall episode still open at termination (defensive: a
	// core only finishes by issuing Ret, which closes its episode above).
	for i, st := range stallStart {
		if st >= 0 {
			s.coreLanes[i].SpanAt("stall", "sim", st, cycle-st)
		}
	}
	return cycle, nil
}

// runFast is the cycle loop for runs with no observability sinks: per-core work is memo requalification plus stepCoreFast,
// and cycles where no core can issue are jumped over in bulk. Timing,
// statistics, termination, and error behavior are identical to run.
func (s *system) runFast(maxCycles, stallLimit int64) (int64, error) {
	n := len(s.cores)
	var cycle, lastProgress int64
	for s.doneCores < n {
		saPortsUsed := 0
		anyIssued := false
		for _, c := range s.cores {
			if c.done {
				continue
			}
			// Requalify a memoized block without entering the step: the
			// recorded condition is exactly what stepCoreFast would find.
			if cycle < c.wake {
				c.stats.IssueStallCycles++
				continue
			}
			if q := c.blockedEmptyQ; q >= 0 {
				if s.queues[q].Len() == 0 {
					c.stats.IssueStallCycles++
					continue
				}
				c.blockedEmptyQ = -1
			}
			if q := c.blockedFullQ; q >= 0 {
				if s.queues[q].Len() >= s.qcap {
					c.stats.IssueStallCycles++
					continue
				}
				c.blockedFullQ = -1
			}
			if s.stepCoreFast(c, cycle, &saPortsUsed) > 0 {
				anyIssued = true
			} else {
				c.stats.IssueStallCycles++
			}
		}
		if s.err != nil {
			return 0, s.err
		}
		if anyIssued {
			lastProgress = cycle
		} else {
			if cycle-lastProgress > stallLimit {
				return 0, fmt.Errorf("%w for %d cycles at cycle %d", ErrNoProgress, cycle-lastProgress, cycle)
			}
			// Nothing issued, so every queue is frozen until some core
			// wakes. If each live core is blocked either until a known wake
			// cycle or on a queue (which cannot change before a wake), the
			// intervening cycles are pure stalls for every live core: skip
			// to the earliest wake and charge the skipped stalls in bulk.
			// The skip is capped so the no-progress watchdog and the cycle
			// budget fire on exactly the cycle they would serially.
			next := int64(1) << 62
			for _, c := range s.cores {
				if c.done {
					continue
				}
				if c.blockedEmptyQ >= 0 || c.blockedFullQ >= 0 {
					continue
				}
				if c.wake > cycle {
					if c.wake < next {
						next = c.wake
					}
				} else {
					// Blocked with no memoized end (SA-port contention or a
					// zero-port config): must re-step next cycle.
					next = cycle + 1
					break
				}
			}
			if lim := lastProgress + stallLimit + 1; next > lim {
				next = lim
			}
			if next > maxCycles+1 {
				next = maxCycles + 1
			}
			if d := next - cycle - 1; d > 0 {
				for _, c := range s.cores {
					if !c.done {
						c.stats.IssueStallCycles += d
					}
				}
				cycle = next - 1
			}
		}
		cycle++
		if cycle > maxCycles {
			return 0, fmt.Errorf("%w (%d cycles)", ErrCycleLimit, maxCycles)
		}
	}
	return cycle, nil
}

// RunSingle times a single-threaded function on one core of the machine —
// the baseline of Figure 8.
func RunSingle(cfg Config, f *ir.Function, args []int64, mem []int64, maxCycles int64) (*Result, error) {
	return Run(cfg, []*ir.Function{f}, args, mem, maxCycles)
}
