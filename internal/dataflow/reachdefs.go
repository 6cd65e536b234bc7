package dataflow

import (
	"math/bits"
	"slices"

	"repro/internal/ir"
)

// defSet is a bit set over definition sites, indexed by a dense def number.
type defSet []uint64

func (s defSet) add(i int) { s[i/64] |= 1 << (uint(i) % 64) }

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
	fn      *ir.Function
	defs    []*ir.Instr // def number -> defining instruction
	defNum  []int       // instruction ID -> def number
	defsOf  []defSet    // register -> set of its def numbers; nil if never defined
	reachIn []defSet    // block ID -> defs reaching block entry
	words   int         // words per defSet
}

// ComputeReachingDefs runs the forward may analysis over f.
func ComputeReachingDefs(f *ir.Function) *ReachingDefs {
	rd := &ReachingDefs{fn: f, defNum: make([]int, f.NumInstrIDs())}
	// Number definitions. Pseudo-defs for params come first.
	nRegs := int(f.MaxReg()) + 1
	for _, p := range f.Params {
		nRegs = max(nRegs, int(p)+1)
		rd.defs = append(rd.defs, nil)
	}
	f.Instrs(func(in *ir.Instr) {
		if in.Defs() != ir.NoReg {
			rd.defNum[in.ID] = len(rd.defs)
			rd.defs = append(rd.defs, in)
		}
	})
	nDefs := len(rd.defs)
	rd.words = (nDefs + 63) / 64
	// Every set is cut from one slab: one per defined register, then
	// gen, kill, reach-in and reach-out per block.
	n := len(f.Blocks)
	slab := make(defSet, rd.words*(nRegs+4*n))
	cut := func() defSet {
		s := slab[:rd.words:rd.words]
		slab = slab[rd.words:]
		return s
	}
	rd.defsOf = make([]defSet, nRegs)
	ensure := func(r ir.Reg) defSet {
		if rd.defsOf[r] == nil {
			rd.defsOf[r] = cut()
		}
		return rd.defsOf[r]
	}
	for i, p := range f.Params {
		ensure(p).add(i)
	}
	f.Instrs(func(in *ir.Instr) {
		if d := in.Defs(); d != ir.NoReg {
			ensure(d).add(rd.defNum[in.ID])
		}
	})

	// Per-block gen/kill.
	gen := make([]defSet, n)
	kill := make([]defSet, n)
	for _, b := range f.Blocks {
		g, k := cut(), cut()
		for _, in := range b.Instrs {
			d := in.Defs()
			if d == ir.NoReg {
				continue
			}
			all := rd.defsOf[d]
			k.unionWith(all)
			g.andNot(all)
			g.add(rd.defNum[in.ID])
		}
		gen[b.ID], kill[b.ID] = g, k
	}

	rd.reachIn = make([]defSet, n)
	reachOut := make([]defSet, n)
	for i := 0; i < n; i++ {
		rd.reachIn[i] = cut()
		reachOut[i] = cut()
	}
	// Parameters reach the entry; of a repeated parameter, its last
	// pseudo-definition.
	for i, p := range f.Params {
		if !slices.Contains(f.Params[i+1:], p) {
			rd.reachIn[f.Entry().ID].add(i)
		}
	}
	order := rpo(f)
	out := make(defSet, rd.words)
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			in := rd.reachIn[b.ID]
			for _, p := range b.Preds {
				if in.unionWith(reachOut[p.ID]) {
					changed = true
				}
			}
			copy(out, in)
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
	var defs []*ir.Instr // every chain's definitions, back to back
	cur := make(defSet, rd.words)
	for _, b := range rd.fn.Blocks {
		copy(cur, rd.reachIn[b.ID])
		for _, in := range b.Instrs {
			for _, r := range dedupRegs(uses(in)) {
				if int(r) >= len(rd.defsOf) || rd.defsOf[r] == nil {
					continue
				}
				ds := rd.defsOf[r]
				start := len(defs)
				for w := range ds { // r's definitions that reach here, in def order
					for m := ds[w] & cur[w]; m != 0; m &= m - 1 {
						defs = append(defs, rd.defs[w*64+bits.TrailingZeros64(m)])
					}
				}
				if len(defs) > start {
					out = append(out, UseChain{Use: in, Reg: r, Defs: defs[start:len(defs):len(defs)]})
				}
			}
			if d := in.Defs(); d != ir.NoReg {
				cur.andNot(rd.defsOf[d])
				cur.add(rd.defNum[in.ID])
			}
		}
	}
	return out
}

// dedupRegs returns rs without repeats, in first-occurrence order. It
// returns rs itself, not a copy, when nothing repeats.
func dedupRegs(rs []ir.Reg) []ir.Reg {
	for i := 1; i < len(rs); i++ {
		if slices.Contains(rs[:i], rs[i]) {
			out := slices.Clone(rs[:i])
			for _, r := range rs[i+1:] {
				if !slices.Contains(out, r) {
					out = append(out, r)
				}
			}
			return out
		}
	}
	return rs
}
