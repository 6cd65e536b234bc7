package dataflow

import (
	"math/bits"

	"repro/internal/ir"
)

// defSet is a bit set over definition sites, indexed by a dense def number.
type defSet []uint64

func newDefSet(n int) defSet { return make(defSet, (n+63)/64) }

func (s defSet) add(i int)      { s[i/64] |= 1 << (uint(i) % 64) }
func (s defSet) has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }
func (s defSet) clone() defSet  { return append(defSet(nil), s...) }

func (s defSet) unionWith(o defSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (s defSet) andNot(o defSet) {
	for i := range s {
		s[i] &^= o[i]
	}
}

// ReachingDefs computes, for every use of a register, the set of definition
// instructions whose values may reach it. These def→use chains are the
// register data-dependence arcs of the PDG. Live-in registers (function
// parameters) have an implicit definition at function entry, represented by
// a nil *ir.Instr in chain results.
type ReachingDefs struct {
	fn       *ir.Function
	defs     []*ir.Instr // def number -> defining instruction
	defNum   map[*ir.Instr]int
	defsOf   map[ir.Reg]defSet // register -> set of its def numbers
	paramDef map[ir.Reg]int    // live-in pseudo-def numbers
	reachIn  []defSet          // block ID -> defs reaching block entry
}

// ComputeReachingDefs runs the forward may analysis over f.
func ComputeReachingDefs(f *ir.Function) *ReachingDefs {
	rd := &ReachingDefs{
		fn:       f,
		defNum:   map[*ir.Instr]int{},
		defsOf:   map[ir.Reg]defSet{},
		paramDef: map[ir.Reg]int{},
	}
	// Number definitions. Pseudo-defs for params come first.
	nDefs := 0
	for range f.Params {
		rd.defs = append(rd.defs, nil)
		nDefs++
	}
	f.Instrs(func(in *ir.Instr) {
		if in.Defs() != ir.NoReg {
			rd.defNum[in] = nDefs
			rd.defs = append(rd.defs, in)
			nDefs++
		}
	})
	ensure := func(r ir.Reg) defSet {
		s, ok := rd.defsOf[r]
		if !ok {
			s = newDefSet(nDefs)
			rd.defsOf[r] = s
		}
		return s
	}
	for i, p := range f.Params {
		rd.paramDef[p] = i
		ensure(p).add(i)
	}
	f.Instrs(func(in *ir.Instr) {
		if d := in.Defs(); d != ir.NoReg {
			ensure(d).add(rd.defNum[in])
		}
	})

	// Per-block gen/kill.
	n := len(f.Blocks)
	gen := make([]defSet, n)
	kill := make([]defSet, n)
	for _, b := range f.Blocks {
		g, k := newDefSet(nDefs), newDefSet(nDefs)
		for _, in := range b.Instrs {
			d := in.Defs()
			if d == ir.NoReg {
				continue
			}
			all := rd.defsOf[d]
			k.unionWith(all)
			g.andNot(all)
			g.add(rd.defNum[in])
		}
		gen[b.ID], kill[b.ID] = g, k
	}

	rd.reachIn = make([]defSet, n)
	reachOut := make([]defSet, n)
	for i := 0; i < n; i++ {
		rd.reachIn[i] = newDefSet(nDefs)
		reachOut[i] = newDefSet(nDefs)
	}
	// Parameters reach the entry.
	for _, p := range f.Params {
		rd.reachIn[f.Entry().ID].add(rd.paramDef[p])
	}
	order := rpo(f)
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			in := rd.reachIn[b.ID]
			for _, p := range b.Preds {
				if in.unionWith(reachOut[p.ID]) {
					changed = true
				}
			}
			out := in.clone()
			out.andNot(kill[b.ID])
			out.unionWith(gen[b.ID])
			if reachOut[b.ID].unionWith(out) {
				changed = true
			}
		}
	}
	return rd
}

// UseChain holds the definitions that may reach one register use.
type UseChain struct {
	Use  *ir.Instr
	Reg  ir.Reg
	Defs []*ir.Instr // nil entries denote the live-in pseudo-definition
}

// Chains returns the def→use chains for every register use in the function,
// visiting blocks in layout order. uses selects which sources of an
// instruction count (pass AllUses for every source).
func (rd *ReachingDefs) Chains(uses func(*ir.Instr) []ir.Reg) []UseChain {
	var out []UseChain
	for _, b := range rd.fn.Blocks {
		cur := rd.reachIn[b.ID].clone()
		for _, in := range b.Instrs {
			for _, r := range dedupRegs(uses(in)) {
				ds := rd.defsOf[r]
				if ds == nil {
					continue
				}
				uc := UseChain{Use: in, Reg: r}
				for w := range ds { // r's definitions that reach here, in def order
					for m := ds[w] & cur[w]; m != 0; m &= m - 1 {
						uc.Defs = append(uc.Defs, rd.defs[w*64+bits.TrailingZeros64(m)])
					}
				}
				if len(uc.Defs) > 0 {
					out = append(out, uc)
				}
			}
			if d := in.Defs(); d != ir.NoReg {
				cur.andNot(rd.defsOf[d])
				cur.add(rd.defNum[in])
			}
		}
	}
	return out
}

func dedupRegs(rs []ir.Reg) []ir.Reg {
	if len(rs) < 2 {
		return rs
	}
	out := rs[:0:0]
	for i, r := range rs {
		dup := false
		for _, q := range rs[:i] {
			if q == r {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}
