// Package interp executes IR functionally: single-threaded functions for
// golden results and edge profiles, and multi-threaded programs (the output
// of MTCG) over blocking synchronization-array queues. The multi-threaded
// interpreter is deterministic — which thread steps next is a Scheduler's
// choice, and every Scheduler here is a pure function of the run so far —
// so equivalence against the single-threaded run is reproducible. It also
// classifies every dynamic instruction as computation or communication,
// producing the data behind Figures 1 and 7.
//
// RunMT decodes every thread once into a flat stream (ir.Stream), and a
// thread's position is one program counter into it. One loop advances that
// counter: it asks the Scheduler before every step, whatever policy or
// trace lane the run carries. A nil Scheduler means Adversarial
// — run a thread until it blocks on a queue or returns — which is sound
// because a correct MTCG program's live-outs, memory and instruction counts
// do not depend on the interleaving (the oracle holds every corpus program
// to that under five policies). Only the schedule-dependent numbers —
// SchedStats, QueueHWM — are the chosen schedule's own. Run, the
// single-threaded reference every executor is compared against, walks the
// IR's blocks directly.
package interp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ir"
)

// ErrStepLimit is returned when execution exceeds the step budget,
// indicating a runaway loop (or a lost wake-up in multi-threaded code).
var ErrStepLimit = errors.New("interp: step limit exceeded")

// checkEvery is the number of dynamic instructions executed between
// cancellation checks; a power of two so the check compiles to a mask.
const checkEvery = 1 << 16

// Memory is the flat word-addressed program memory shared by all threads.
type Memory []int64

// Clone returns an independent copy of the memory image.
func (m Memory) Clone() Memory { return append(Memory(nil), m...) }

// Result is the outcome of a single-threaded run.
type Result struct {
	// LiveOuts holds the final value of each register listed by Ret, in
	// Ret's order.
	LiveOuts []int64
	Mem      Memory
	// Steps is the number of dynamic instructions executed.
	Steps int64
	// Profile holds the observed exits of every block.
	Profile *ir.Profile
}

// Run executes f single-threaded with the given parameter values and memory
// image (mutated in place). It fails with ErrStepLimit after maxSteps
// instructions.
func Run(f *ir.Function, args []int64, mem Memory, maxSteps int64) (*Result, error) {
	return RunCtx(context.Background(), f, args, mem, maxSteps)
}

// RunCtx is Run with cooperative cancellation: every checkEvery dynamic
// instructions it polls ctx and aborts with ctx's error if the context is
// done, so a cancelled experiment matrix returns promptly even while a
// 200M-step profiling pass is in flight.
func RunCtx(ctx context.Context, f *ir.Function, args []int64, mem Memory, maxSteps int64) (*Result, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("interp: %s takes %d params, got %d", f.Name, len(f.Params), len(args))
	}
	regs := make([]int64, int(f.MaxReg())+1)
	for i, p := range f.Params {
		regs[p] = args[i]
	}
	res := &Result{Mem: mem}
	// tally[b][s] counts block b's exits to its successor s: the
	// profile's own format (ir.Profile.Exits), handed over at Ret.
	tally := make([][2]int64, len(f.Blocks))
	blk := f.Entry()
	idx := 0
	for {
		if res.Steps >= maxSteps {
			return nil, fmt.Errorf("%w (%s after %d steps)", ErrStepLimit, f.Name, res.Steps)
		}
		if res.Steps&(checkEvery-1) == checkEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("interp: %s after %d steps: %w", f.Name, res.Steps, err)
			}
		}
		in := blk.Instrs[idx]
		res.Steps++
		switch in.Op {
		case ir.Br:
			s := 1
			if regs[in.Srcs[0]] != 0 {
				s = 0
			}
			tally[blk.ID][s]++
			blk, idx = blk.Succs[s], 0
		case ir.Jump:
			tally[blk.ID][0]++
			blk, idx = blk.Succs[0], 0
		case ir.Ret:
			for _, r := range in.Srcs {
				res.LiveOuts = append(res.LiveOuts, regs[r])
			}
			// A branch whose two arms reach one block counts in slot 0.
			for id, b := range f.Blocks {
				if len(b.Succs) == 2 && b.Succs[1] == b.Succs[0] {
					tally[id][0] += tally[id][1]
					tally[id][1] = 0
				}
			}
			res.Profile = &ir.Profile{Exits: tally}
			return res, nil
		case ir.Load, ir.Store:
			if err := exec(in, regs, mem); err != nil {
				return nil, fmt.Errorf("interp: %s: %v: %w", f.Name, in, err)
			}
			idx++
		default:
			if !in.Eval(regs) {
				return nil, fmt.Errorf("interp: %s: %v: %w", f.Name, in, errOpcode(in.Op))
			}
			idx++
		}
	}
}

// exec executes a memory instruction (Load or Store), bounds-checked.
// Everything else that is neither control flow nor communication goes
// through ir.Instr.Eval, called directly from Run and stepThread.
func exec(in *ir.Instr, regs []int64, mem Memory) error {
	switch in.Op {
	case ir.Load:
		a := regs[in.Srcs[0]] + in.Imm
		if a < 0 || a >= int64(len(mem)) {
			return fmt.Errorf("load address %d out of range [0,%d)", a, len(mem))
		}
		regs[in.Dst] = mem[a]
	case ir.Store:
		a := regs[in.Srcs[1]] + in.Imm
		if a < 0 || a >= int64(len(mem)) {
			return fmt.Errorf("store address %d out of range [0,%d)", a, len(mem))
		}
		mem[a] = regs[in.Srcs[0]]
	}
	return nil
}

// errOpcode reports an opcode Eval declined and no interpreter loop handles:
// a communication instruction in a single-threaded run, or a value outside
// the table.
func errOpcode(op ir.Op) error { return fmt.Errorf("unexpected opcode %v", op) }
