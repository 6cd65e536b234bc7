// Package gmt is the public face of the global multi-threaded (GMT)
// instruction scheduling framework: a reproduction of "Global
// Multi-Threaded Instruction Scheduling" (GREMIO, MICRO 2007) and its
// companion "Communication Optimizations for Global Multi-Threaded
// Instruction Scheduling" (COCO, ASPLOS 2008) by Ottoni and August.
//
// The framework follows Figure 2 of the paper: build a Program Dependence
// Graph for a region of low-level IR, partition its instructions into
// threads with a pluggable partitioner (DSWP or GREMIO), and generate
// multi-threaded code with MTCG, placing inter-thread communication either
// naively (at each dependence's source) or optimally via COCO's thread-aware
// data-flow analyses and graph min-cuts.
//
// Typical use:
//
//	b := gmt.NewBuilder("kernel")
//	... build the region's CFG ...
//	res, err := gmt.Parallelize(b.F, b.Objects, gmt.Config{
//		Scheduler: gmt.SchedulerDSWP,
//		COCO:      true,
//		Profile:   gmt.ProfileInput{Args: args, Mem: mem},
//	})
//	out, err := gmt.Execute(res, args, mem)
package gmt

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/coco"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/sim"
)

// Budget bounds the interpreter and simulator runs the framework performs:
// profiling, execution, and cycle-level simulation. It is shared with the
// experiment harness so the public API and the figure engine draw their
// limits from one place. The zero value means DefaultBudget().
type Budget = budget.Budget

// DefaultBudget returns the budgets used when Config.Budget is zero.
func DefaultBudget() Budget { return budget.Default() }

// Re-exported IR types: the vocabulary clients build regions with.
type (
	// Function is a single-entry region of IR: the unit the framework
	// parallelizes.
	Function = ir.Function
	// Builder constructs Functions imperatively.
	Builder = ir.Builder
	// MemObject names an array in the flat word-addressed memory.
	MemObject = ir.MemObject
	// Reg is a virtual register.
	Reg = ir.Reg
	// Instr is one IR instruction.
	Instr = ir.Instr
	// Profile is an edge profile: Exits[b][s] counts block b's exits to its
	// successor s (read it with EdgeWeight, BlockWeight and Frequencies).
	Profile = ir.Profile
	// Memory is the flat program memory.
	Memory = interp.Memory
	// MachineConfig describes the simulated CMP (Figure 6(a)).
	MachineConfig = sim.Config
	// CommStats classifies dynamic instructions (computation versus
	// communication), the quantity behind Figures 1 and 7.
	CommStats = interp.CommStats
	// Partitioner is the pluggable thread-assignment stage of Figure 2.
	Partitioner = partition.Partitioner
)

// NewBuilder returns a builder for a fresh region.
func NewBuilder(name string) *Builder { return ir.NewBuilder(name) }

// DefaultMachine returns the dual-core Itanium 2 model of Figure 6(a).
func DefaultMachine() MachineConfig { return sim.DefaultConfig() }

// Scheduler selects a built-in partitioner.
type Scheduler string

const (
	// SchedulerDSWP selects Decoupled Software Pipelining [16].
	SchedulerDSWP Scheduler = "dswp"
	// SchedulerGREMIO selects the GREMIO hierarchical scheduler [15].
	SchedulerGREMIO Scheduler = "gremio"
)

// ProfileInput describes the training input used to collect the edge
// profile that drives partitioning and COCO's min-cut costs.
type ProfileInput struct {
	Args []int64
	Mem  []int64
}

// Config controls Parallelize.
type Config struct {
	// Scheduler picks a built-in partitioner; Custom overrides it.
	Scheduler Scheduler
	// Custom, when non-nil, is used instead of Scheduler — the "plug your
	// own partitioner" extension point of Figure 2.
	Custom Partitioner
	// Threads is the number of threads to extract (default 2, the
	// paper's evaluation).
	Threads int
	// COCO enables the communication optimization framework; without it
	// MTCG places communication at each dependence's source instruction.
	COCO bool
	// CocoOptions tunes COCO when enabled; zero value means the paper's
	// defaults.
	CocoOptions coco.Options
	// Profile is the training input; it is executed once to collect edge
	// counts. Ignored when StaticProfile is set.
	Profile ProfileInput
	// StaticProfile estimates edge frequencies structurally (Wu–Larus
	// style [28]) instead of running the training input — the paper's
	// profile-free alternative.
	StaticProfile bool
	// KeepPerDepQueues disables queue allocation, keeping MTCG's one
	// queue per dependence.
	KeepPerDepQueues bool
	// Budget bounds the profiling, execution, and simulation runs; zero
	// fields default to DefaultBudget().
	Budget Budget
}

// Result is a parallelized region.
type Result struct {
	// Threads holds one function per generated thread.
	Threads []*Function
	// NumQueues is the number of synchronization-array queues used.
	NumQueues int
	// Assign is the partition that produced the code.
	Assign map[*Instr]int
	// Profile is the collected training profile.
	Profile *Profile
	// QueueCap is the synchronization-array queue depth the region is
	// executed with: the partitioner's preference (32 entries for DSWP,
	// single-entry queues otherwise, as in the paper's evaluation).
	// Execute uses it directly; pass it into MachineConfig.QueueCap to
	// simulate the same depth.
	QueueCap int

	orig    *ir.Function
	objects []ir.MemObject
	program *mtcg.Program
	budget  Budget
}

// Original returns the region the result was produced from.
func (r *Result) Original() *Function { return r.orig }

// Objects returns the region's memory-object table.
func (r *Result) Objects() []MemObject { return r.objects }

// CommCount returns the number of distinct communicated dependences (each
// occupying one logical queue before allocation).
func (r *Result) CommCount() int { return len(r.program.Comms) }

// Parallelize runs the full pipeline of Figure 2 on a region: profiling,
// PDG construction, partitioning, communication planning (naive or COCO),
// MTCG, and queue allocation. A region that fails ir.Function.Verify is
// rejected before any of it runs.
func Parallelize(f *Function, objects []MemObject, cfg Config) (*Result, error) {
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("gmt: verifying region: %w", err)
	}
	if cfg.Threads == 0 {
		cfg.Threads = 2
	}
	cfg.Budget = cfg.Budget.OrElse(budget.Default())
	var edgeProf *ir.Profile
	if cfg.StaticProfile {
		edgeProf = analysis.EstimateProfile(f)
	} else {
		res, err := interp.Run(f, cfg.Profile.Args, cfg.Profile.Mem, cfg.Budget.ProfileSteps)
		if err != nil {
			return nil, fmt.Errorf("gmt: profiling: %w", err)
		}
		edgeProf = res.Profile
	}

	g := pdg.Build(f, objects)
	part := cfg.Custom
	if part == nil {
		switch cfg.Scheduler {
		case SchedulerDSWP, "":
			part = partition.DSWP{}
		case SchedulerGREMIO:
			part = partition.GREMIO{}
		default:
			return nil, fmt.Errorf("gmt: unknown scheduler %q", cfg.Scheduler)
		}
	}
	assign, err := part.Partition(f, g, edgeProf, cfg.Threads)
	if err != nil {
		return nil, fmt.Errorf("gmt: partitioning: %w", err)
	}

	var plan *mtcg.Plan
	if cfg.COCO {
		opts := cfg.CocoOptions
		if opts == (coco.Options{}) {
			opts = coco.DefaultOptions()
		}
		plan, err = coco.Plan(f, g, assign, cfg.Threads, edgeProf, opts)
		if err != nil {
			return nil, fmt.Errorf("gmt: COCO: %w", err)
		}
	} else {
		plan = mtcg.NaivePlan(f, g, assign, cfg.Threads)
	}
	prog, err := mtcg.Generate(plan)
	if err != nil {
		return nil, fmt.Errorf("gmt: MTCG: %w", err)
	}
	if !cfg.KeepPerDepQueues {
		queue.Allocate(prog)
	}
	return &Result{
		Threads:   prog.Threads,
		NumQueues: prog.NumQueues,
		Assign:    assign,
		Profile:   edgeProf,
		QueueCap:  partition.QueueCapFor(part),
		orig:      f,
		objects:   objects,
		program:   prog,
		budget:    cfg.Budget,
	}, nil
}

// Job is one region for ParallelizeAll.
type Job struct {
	F       *Function
	Objects []MemObject
	Config  Config
}

// ParallelizeAll runs Parallelize over many independent regions
// concurrently, using up to jobs workers (jobs <= 0 means GOMAXPROCS).
// Results are returned in input order; the first error aborts dispatch of
// the remaining regions and is returned after in-flight work finishes.
// Regions must not share mutable state — each Job's Function is compiled,
// and its profile input executed, on its own worker.
func ParallelizeAll(ctx context.Context, jobs int, work []Job) ([]*Result, error) {
	results := make([]*Result, len(work))
	err := par.Run(ctx, jobs, len(work), func(i int) error {
		r, err := Parallelize(work[i].F, work[i].Objects, work[i].Config)
		if err != nil {
			return fmt.Errorf("gmt: region %d (%s): %w", i, work[i].F.Name, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ExecResult is the outcome of executing a parallelized region.
type ExecResult struct {
	// LiveOuts are the region's final live-out values.
	LiveOuts []int64
	// Mem is the final memory image.
	Mem []int64
	// Stats classifies the dynamic instructions executed.
	Stats CommStats
}

// Execute runs the parallelized region on the deterministic multi-threaded
// interpreter and returns live-outs, memory, and instruction statistics.
func Execute(r *Result, args []int64, mem Memory) (*ExecResult, error) {
	mt, err := interp.RunMT(interp.MTConfig{
		Threads:   r.Threads,
		NumQueues: r.NumQueues,
		QueueCap:  r.QueueCap,
		Assign:    r.Assign,
		Args:      args,
		Mem:       mem,
		MaxSteps:  r.budget.OrElse(budget.Default()).MeasureSteps,
	})
	if err != nil {
		return nil, err
	}
	return &ExecResult{LiveOuts: mt.LiveOuts, Mem: mt.Mem, Stats: mt.Stats}, nil
}

// ExecuteSingle runs the original single-threaded region, returning its
// live-outs and dynamic instruction count — the golden reference. Like
// Parallelize, it verifies the region first.
func ExecuteSingle(f *Function, args []int64, mem Memory) (liveOuts []int64, steps int64, err error) {
	if err := f.Verify(); err != nil {
		return nil, 0, fmt.Errorf("gmt: verifying region: %w", err)
	}
	res, err := interp.Run(f, args, mem, budget.Default().ProfileSteps)
	if err != nil {
		return nil, 0, err
	}
	return res.LiveOuts, res.Steps, nil
}

// Simulate times the parallelized region on the cycle-level CMP model and
// returns the cycle count.
func Simulate(r *Result, cfg MachineConfig, args []int64, mem []int64) (int64, error) {
	res, err := sim.Run(cfg, r.Threads, args, mem, r.budget.OrElse(budget.Default()).SimCycles)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// SimulateSingle times the original region on one core of the machine.
func SimulateSingle(f *Function, cfg MachineConfig, args []int64, mem []int64) (int64, error) {
	res, err := sim.RunSingle(cfg, f, args, mem, budget.Default().SimCycles)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}
