package dataflow

import "repro/internal/ir"

// Safety is the paper's thread-aware SAFE analysis (equations (1) and (2)):
// the set of registers a source thread T_s is guaranteed to hold the latest
// value of at each program point. Communication of a register dependence
// from T_s must be placed only at points where the register is SAFE
// (Property 3).
//
// Transfer (per instruction n, forward):
//
//	SAFE_out(n) = DEF_Ts(n) ∪ USE_Ts(n) ∪ (SAFE_in(n) − DEF(n))
//	SAFE_in(n)  = ∩ over predecessors p of SAFE_out(p)
//
// DEF_Ts/USE_Ts are n's defs/uses when n executes in T_s — n is assigned to
// T_s, or n is a branch relevant to T_s (relevant branches are duplicated
// into the thread, so the thread observes their operands). DEF(n) is n's
// definition regardless of thread.
//
// The transfer functions are distributive bit operations, so the greatest
// fixpoint (initializing interior points to the universal set) equals the
// meet-over-paths solution; we compute that rather than the pessimistic
// least fixpoint. Live-in registers are SAFE at entry: every thread starts
// with a copy of the region's live-ins.
type Safety struct {
	fn      *ir.Function
	inTs    func(*ir.Instr) bool
	safeIn  []RegSet // block ID -> SAFE before first instruction
	safeOut []RegSet
}

// ComputeSafety runs the SAFE analysis for the thread characterized by inTs:
// inTs(n) reports whether instruction n executes in T_s (assigned there or a
// branch duplicated there).
func ComputeSafety(f *ir.Function, inTs func(*ir.Instr) bool) *Safety {
	s := &Safety{fn: f, inTs: inTs}
	n := len(f.Blocks)
	max := f.MaxReg()
	sets := newRegSets(2*n+1, max)
	s.safeIn, s.safeOut = sets[:n], sets[n:2*n]
	for _, set := range sets[:2*n] {
		set.Fill()
	}
	out := sets[2*n] // scratch: the block being transferred
	// Entry: only live-ins are safe.
	entry := f.Entry()
	s.safeIn[entry.ID].Clear()
	for _, p := range f.Params {
		s.safeIn[entry.ID].Add(p)
	}

	order := rpo(f)
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			in := s.safeIn[b.ID]
			if b != entry {
				for _, p := range b.Preds {
					if in.IntersectWith(s.safeOut[p.ID]) {
						changed = true
					}
				}
			}
			out.CopyFrom(in)
			for _, instr := range b.Instrs {
				s.transfer(instr, out)
			}
			if s.safeOut[b.ID].IntersectWith(out) {
				changed = true
			}
		}
	}
	return s
}

// transfer applies one instruction's forward SAFE transfer.
func (s *Safety) transfer(in *ir.Instr, safe RegSet) {
	if d := in.Defs(); d != ir.NoReg {
		safe.Remove(d) // another thread's def makes the value stale...
	}
	if s.inTs(in) {
		if d := in.Defs(); d != ir.NoReg {
			safe.Add(d) // ...but T_s's own def or use refreshes it
		}
		for _, r := range in.Uses() {
			safe.Add(r)
		}
	}
}

// SafeIn returns the SAFE set before the first instruction of b.
func (s *Safety) SafeIn(b *ir.Block) RegSet { return s.safeIn[b.ID] }

// SafeOut returns the SAFE set after the terminator of b.
func (s *Safety) SafeOut(b *ir.Block) RegSet { return s.safeOut[b.ID] }

// Points fills ps with the SAFE-before set of every instruction position:
// position i of block b is the set before b.Instrs[i]; position
// len(b.Instrs) is SAFE at block exit.
func (s *Safety) Points(ps *PointSets) {
	for _, b := range s.fn.Blocks {
		cur := ps.At(ps.Pos(b, 0))
		cur.CopyFrom(s.safeIn[b.ID])
		for i, instr := range b.Instrs {
			after := ps.At(ps.Pos(b, i+1))
			after.CopyFrom(cur)
			s.transfer(instr, after)
			cur = after
		}
	}
}
