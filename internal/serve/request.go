package serve

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// SchemaVersion identifies the response payload schema, which is also the
// cache payload schema: cached entries are the exact bytes served. It is
// folded into every cache key (first, see cache.NewHasher), so bumping it
// makes every old entry an automatic miss instead of a misread. Bump it
// whenever the meaning or layout of the response changes — adding a
// field, changing units, changing how a value is computed — never reuse a
// version for different bytes (see DESIGN.md).
const SchemaVersion = 1

// Request is one scheduling request: a workload (a named benchmark or an
// inline IR function), a partitioner, and options. The zero value of every
// optional field means "server default".
type Request struct {
	// Workload names a built-in benchmark (see GET /v1/workloads).
	// Mutually exclusive with IR.
	Workload string `json:"workload,omitempty"`

	// IR is an inline function in the framework's canonical IR text (the
	// format ir.Parse accepts and irdump prints). Name labels it in the
	// response (default "inline"); Args/Mem are its input; Objects
	// declares its memory objects for dependence analysis.
	IR      string      `json:"ir,omitempty"`
	Name    string      `json:"name,omitempty"`
	Args    []int64     `json:"args,omitempty"`
	Mem     []int64     `json:"mem,omitempty"`
	Objects []MemObject `json:"objects,omitempty"`

	// Partitioner selects the scheduler (default gremio; see GET
	// /v1/partitioners).
	Partitioner string `json:"partitioner,omitempty"`

	// Sim additionally runs the cycle-level simulator and reports cycle
	// counts and speedup.
	Sim bool `json:"sim,omitempty"`

	// Degrade overrides the server's graceful-degradation default:
	// requested partitioner → alternate partitioner → single-threaded.
	Degrade *bool `json:"degrade,omitempty"`

	// Budget bounds this request's interpreter and simulator runs. Zero
	// fields take the server defaults; all fields are clamped to the
	// server's caps.
	Budget Budget `json:"budget,omitempty"`

	// DeadlineMS bounds this request's wall-clock time in milliseconds;
	// 0 takes the server default, and either is clamped to the server
	// cap. Exceeding it returns 504. Unlike Budget, the deadline never
	// enters the cache key: it changes whether a response arrives in
	// time, never which bytes it holds.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// MemObject mirrors ir.MemObject for the wire.
type MemObject struct {
	Name string `json:"name"`
	Base int64  `json:"base"`
	Size int64  `json:"size"`
}

// Budget mirrors budget.Budget for the wire.
type Budget struct {
	ProfileSteps int64 `json:"profile_steps,omitempty"`
	MeasureSteps int64 `json:"measure_steps,omitempty"`
	SimCycles    int64 `json:"sim_cycles,omitempty"`
}

// Response is one scheduling result. Its JSON encoding is the cached
// payload: the same bytes are served cold, warm from memory, warm from
// disk, and merged into a concurrent flight.
type Response struct {
	Schema      int    `json:"schema"`
	Workload    string `json:"workload"`
	Partitioner string `json:"partitioner"`
	// Fingerprint is the workload's content hash (IR, memory objects,
	// inputs) — the identity the artifact cache keys on.
	Fingerprint string  `json:"fingerprint"`
	Comm        *Comm   `json:"comm"`
	Cycles      *Cycles `json:"cycles,omitempty"`
}

// Comm reports the dynamic communication measurement (Figures 1/7).
type Comm struct {
	Naive    interp.CommStats `json:"naive"`
	Coco     interp.CommStats `json:"coco"`
	NaivePct float64          `json:"naive_comm_pct"`
	CocoPct  float64          `json:"coco_comm_pct"`
	// Fallback records what the degradation chain substituted ("" = ran
	// as requested).
	Fallback string `json:"fallback,omitempty"`
}

// Cycles reports the cycle-level simulation (Figure 8).
type Cycles struct {
	SingleThreaded int64   `json:"single_threaded"`
	Naive          int64   `json:"naive"`
	Coco           int64   `json:"coco"`
	Speedup        float64 `json:"speedup"`
	Fallback       string  `json:"fallback,omitempty"`
}

// errorBody is the JSON body of every non-200 response. Error bodies
// are never cached, so — unlike success bodies, whose bytes must be
// identical across cold/warm/merged paths — they can carry the
// per-request trace ID inline.
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// maxInlineReg is the highest register an inline function may name. The
// executors and the register-indexed analysis tables are sized by the
// highest register, not by how many are used, so r9999999999994 alone
// would size a register file past any memory. The eleven kernels name at
// most r69 and a size-10 240 randprog program about r7 500, so 1<<16
// refuses nothing the repository generates and keeps a register file at
// 512 KiB.
const maxInlineReg = 1 << 16

// maxInlinePointSets bounds, in bytes, one per-point register table of an
// inline function (dataflow.PointSets, of which COCO keeps two). A table
// holds a register set as wide as the highest register at every
// instruction position, so with every register under maxInlineReg a body
// near maxBody could still ask for gigabytes: 419 427 one-line
// instructions naming r65536 size each table at 3.4 GB. The kernels need
// at most 2 KiB and a size-10 240 randprog program about 9 MB.
const maxInlinePointSets = 32 << 20

// maxInlineBlockTables bounds, in bytes, each of the two tables pdg.Build
// sizes by the square of an inline function's blocks: their reachability
// (analysis.Reachability, a boolean a pair of blocks) and the reaching
// definitions (dataflow.ComputeReachingDefs, a set of every definition for
// each defined register and four for each block). With every register
// small a body near maxBody still holds 200 000 blocks, which size the
// first at 40 GB and, each defining r2, the second at 20 GB. The kernels
// need at most 3 KiB, and a size-10 240 randprog program (about 1 600
// blocks) 2.4 MB and 11.4 MB.
const maxInlineBlockTables = 32 << 20

// workload resolves the request's workload. A named benchmark is the
// kernels table's value, built once per process and shared by every
// request for that kernel; nothing on the request path writes to it, so
// one engine per computation keys it by the same pointer every time. An
// inline IR function is a fresh value — new IR, new instruction
// pointers — that no other request shares.
func (r *Request) workload() (*workloads.Workload, error) {
	switch {
	case r.Workload != "" && r.IR != "":
		return nil, fmt.Errorf("workload and ir are mutually exclusive")
	case r.Workload != "":
		return cli.ResolveWorkload(r.Workload)
	case r.IR == "":
		return nil, fmt.Errorf("one of workload or ir is required")
	}
	f, err := ir.Parse(r.IR)
	if err != nil {
		return nil, fmt.Errorf("parsing ir: %v", err)
	}
	// Text that parses can still be no function — a block with no
	// terminator, two rets — and the executors index by Verify's
	// invariants: refuse it here, as the client's error it is.
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("verifying ir: %v", err)
	}
	// After Verify no register exceeds MaxReg.
	if f.MaxReg() > maxInlineReg {
		return nil, fmt.Errorf("ir names register %v; inline functions may name registers up to %v", f.MaxReg(), ir.Reg(maxInlineReg))
	}
	if n := dataflow.PointSetsBytes(f); n > maxInlinePointSets {
		return nil, fmt.Errorf("ir has %d instruction positions and names registers up to %v: a per-point register table would take %d bytes; inline functions may size one up to %d",
			dataflow.Positions(f), f.MaxReg(), n, maxInlinePointSets)
	}
	if n := analysis.ReachabilityBytes(f); n > maxInlineBlockTables {
		return nil, fmt.Errorf("ir has %d blocks: their reachability table would take %d bytes; inline functions may size it up to %d",
			len(f.Blocks), n, maxInlineBlockTables)
	}
	if n := dataflow.ReachingDefsBytes(f); n > maxInlineBlockTables {
		return nil, fmt.Errorf("ir has %d blocks: their reaching-definition table would take %d bytes; inline functions may size it up to %d",
			len(f.Blocks), n, maxInlineBlockTables)
	}
	// Communication is what the server generates from a function: source
	// that already holds a produce or consume is no single-threaded
	// program, and the profile cannot run it.
	var comm *ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if comm == nil && in.Op.IsComm() {
			comm = in
		}
	})
	if comm != nil {
		return nil, fmt.Errorf("ir holds %v; inline functions are single-threaded source, the server generates the communication", comm)
	}
	// COCO's placement needs critical edges split. Every built-in workload
	// and randprog program arrives split already, and splitting a function
	// that has none changes nothing, so neither its key nor its reply.
	f.SplitCriticalEdges()
	name := r.Name
	if name == "" {
		name = "inline"
	}
	objs := make([]ir.MemObject, len(r.Objects))
	for i, o := range r.Objects {
		if o.Size <= 0 {
			return nil, fmt.Errorf("object %q: size must be positive", o.Name)
		}
		objs[i] = ir.MemObject{Name: o.Name, Base: o.Base, Size: o.Size}
	}
	// Runs mutate the memory image, so each call hands out a fresh copy.
	// The inline input serves as both train and reference set: Ref is nil,
	// so Inputs builds it once for both.
	return &workloads.Workload{
		Name:     name,
		Function: name,
		Suite:    "inline",
		F:        f,
		Objects:  objs,
		Train: func() workloads.Input {
			return workloads.Input{
				Args: append([]int64(nil), r.Args...),
				Mem:  append([]int64(nil), r.Mem...),
			}
		},
	}, nil
}

// toBudget normalizes the wire budget against the server defaults and
// clamps it to the server caps. The clamped value — not the requested one
// — is what enters the cache key, so two requests that clamp to the same
// effective budget share an entry.
func (b Budget) toBudget(max budget.Budget) budget.Budget {
	eb := budget.Budget{
		ProfileSteps: b.ProfileSteps,
		MeasureSteps: b.MeasureSteps,
		SimCycles:    b.SimCycles,
	}.OrElse(budget.Experiments())
	if max.ProfileSteps > 0 && eb.ProfileSteps > max.ProfileSteps {
		eb.ProfileSteps = max.ProfileSteps
	}
	if max.MeasureSteps > 0 && eb.MeasureSteps > max.MeasureSteps {
		eb.MeasureSteps = max.MeasureSteps
	}
	if max.SimCycles > 0 && eb.SimCycles > max.SimCycles {
		eb.SimCycles = max.SimCycles
	}
	return eb
}

// requestKey is the cache key: a fingerprint over everything that
// determines the response bytes. The schema version is folded in first;
// the workload fingerprint already covers IR content, memory objects, and
// inputs.
func requestKey(w *workloads.Workload, partitioner string, sim bool, b budget.Budget, degrade bool) string {
	h := cache.NewHasher(SchemaVersion)
	h.Field("workload", w.Fingerprint())
	h.Field("partitioner", partitioner)
	h.Bool("sim", sim)
	h.Int("budget.profile", b.ProfileSteps)
	h.Int("budget.measure", b.MeasureSteps)
	h.Int("budget.sim", b.SimCycles)
	h.Bool("degrade", degrade)
	return h.Sum()
}
