// Package alias implements a flow-insensitive, Andersen-style points-to
// analysis over the IR's flat memory. It plays the role of the
// context-sensitive pointer analysis the paper's compiler uses [14]: its
// may-alias answers induce the memory dependence arcs of the PDG.
//
// Address provenance is rooted at constants that fall inside declared
// MemObjects (arrays). Pointer values may be stored into and loaded back
// out of memory (linked structures), which the analysis models with one
// content set per object. A memory access whose address has no known
// provenance is "wild" and conservatively aliases everything.
package alias

import (
	"math/bits"

	"repro/internal/ir"
)

type objSet []uint64

func (s objSet) add(i int) { s[i/64] |= 1 << (uint(i) % 64) }

func (s objSet) unionWith(o objSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (s objSet) intersects(o objSet) bool {
	for i := range s {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

func (s objSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s objSet) elems() []int {
	var out []int
	for i, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*64+b)
			w &= w - 1
		}
	}
	return out
}

// Result holds the points-to solution for one function.
type Result struct {
	fn      *ir.Function
	objects []ir.MemObject
	pts     []objSet // register -> objects it may point into
	content []objSet // object -> objects whose addresses it may hold
	// constBase marks registers with exactly one definition, a Const:
	// their runtime value is fixed, enabling exact offset disambiguation.
	constBase []bool
}

// Analyze computes the points-to solution of f given its memory-object
// table.
func Analyze(f *ir.Function, objects []ir.MemObject) *Result {
	nObj := len(objects)
	nRegs := int(f.MaxReg()) + 1
	r := &Result{
		fn:        f,
		objects:   objects,
		pts:       make([]objSet, nRegs),
		content:   make([]objSet, nObj),
		constBase: make([]bool, nRegs),
	}
	// Every set is cut from one slab.
	words := (nObj + 63) / 64
	slab := make(objSet, words*(nRegs+nObj))
	for _, sets := range [][]objSet{r.pts, r.content} {
		for i := range sets {
			sets[i] = slab[:words:words]
			slab = slab[words:]
		}
	}

	// Seed: address constants; also find registers whose only definition
	// is a Const.
	defCount := make([]int, nRegs)
	f.Instrs(func(in *ir.Instr) {
		if d := in.Defs(); d != ir.NoReg {
			defCount[d]++
			if in.Op == ir.Const {
				r.constBase[d] = true
			}
		}
		if in.Op != ir.Const {
			return
		}
		for oi, o := range objects {
			if o.Contains(in.Imm) {
				r.pts[in.Dst].add(oi)
			}
		}
	})
	for reg, n := range defCount {
		if n != 1 {
			r.constBase[reg] = false
		}
	}

	// Propagate to fixpoint.
	for changed := true; changed; {
		changed = false
		f.Instrs(func(in *ir.Instr) {
			switch in.Op {
			case ir.Load:
				dst := r.pts[in.Dst]
				for w, m := range r.pts[in.Srcs[0]] {
					for ; m != 0; m &= m - 1 {
						if dst.unionWith(r.content[w*64+bits.TrailingZeros64(m)]) {
							changed = true
						}
					}
				}
			case ir.Store:
				val := r.pts[in.Srcs[0]]
				for w, m := range r.pts[in.Srcs[1]] {
					for ; m != 0; m &= m - 1 {
						if r.content[w*64+bits.TrailingZeros64(m)].unionWith(val) {
							changed = true
						}
					}
				}
			default:
				d := in.Defs()
				if d == ir.NoReg {
					return
				}
				for _, s := range in.Uses() {
					if r.pts[d].unionWith(r.pts[s]) {
						changed = true
					}
				}
			}
		})
	}
	return r
}

// PointsTo returns the indices (into the object table) of the objects
// register reg may point into. An empty result means the register has no
// address provenance.
func (r *Result) PointsTo(reg ir.Reg) []int { return r.pts[reg].elems() }

// baseReg returns the address base register of a memory access.
func baseReg(in *ir.Instr) ir.Reg {
	switch in.Op {
	case ir.Load:
		return in.Srcs[0]
	case ir.Store:
		return in.Srcs[1]
	}
	return ir.NoReg
}

// MayAlias reports whether two memory accesses may touch the same word.
// Non-memory instructions never alias. An access with unknown provenance
// aliases everything.
func (r *Result) MayAlias(a, b *ir.Instr) bool {
	ra, rb := baseReg(a), baseReg(b)
	if ra == ir.NoReg || rb == ir.NoReg {
		return false
	}
	pa, pb := r.pts[ra], r.pts[rb]
	if pa.empty() || pb.empty() {
		return true // wild access
	}
	if !pa.intersects(pb) {
		return false
	}
	// Refinement: identical once-defined constant base register with
	// distinct constant offsets -> provably distinct words. (The base
	// must be a fixed constant: a loop-varying base register can make
	// different static offsets collide across iterations.)
	if ra == rb && a.Imm != b.Imm && r.constBase[ra] {
		return false
	}
	return true
}
