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

func (s defSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ReachingDefs computes, for every use of a register, the set of definition
// instructions whose values may reach it. These def→use chains are the
// register data-dependence arcs of the PDG. Live-in registers (function
// parameters) have an implicit definition at function entry, represented by
// a nil *ir.Instr in chain results.
type ReachingDefs struct {
	fn     *ir.Function
	defs   []*ir.Instr // def number -> defining instruction
	defNum []int       // instruction ID -> def number
	regRow []int32     // register -> 1 + its row of sets; 0 if never defined
	// sets has a row per defined register, the set of its def numbers,
	// then a row per block of the defs reaching its entry, then the
	// analysis' own reach-out, gen and kill rows per block.
	sets  defTable
	nRows int // rows before the blocks'
}

// defTable is a table of equally wide defSets in one array.
type defTable struct {
	words int
	bits  []uint64
}

// row returns the table's i-th set. It aliases the table.
func (t defTable) row(i int) defSet {
	return defSet(t.bits[i*t.words : (i+1)*t.words : (i+1)*t.words])
}

// defsOf returns the def numbers of register r, nil if r is never defined.
func (rd *ReachingDefs) defsOf(r ir.Reg) defSet {
	if int(r) >= len(rd.regRow) || rd.regRow[r] == 0 {
		return nil
	}
	return rd.sets.row(int(rd.regRow[r]) - 1)
}

// reachIn returns the defs reaching block b's entry.
func (rd *ReachingDefs) reachIn(b *ir.Block) defSet { return rd.sets.row(rd.nRows + b.ID) }

// ReachingDefsBytes returns what ComputeReachingDefs(f) allocates for its
// table of def sets, without allocating it: a set as wide as f's
// definitions, the parameters' pseudo-definitions included, for every
// defined register and four for every block.
func ReachingDefsBytes(f *ir.Function) int64 {
	maxReg := f.MaxReg()
	for _, p := range f.Params {
		maxReg = max(maxReg, p)
	}
	defined := NewRegSet(maxReg)
	nDefs, nRows := len(f.Params), 0
	define := func(r ir.Reg) {
		if !defined.Has(r) {
			defined.Add(r)
			nRows++
		}
	}
	for _, p := range f.Params {
		define(p)
	}
	f.Instrs(func(in *ir.Instr) {
		if d := in.Defs(); d != ir.NoReg {
			define(d)
			nDefs++
		}
	})
	return int64((nDefs+63)/64) * int64(nRows+4*len(f.Blocks)) * 8
}

// ComputeReachingDefs runs the forward may analysis over f.
func ComputeReachingDefs(f *ir.Function) *ReachingDefs {
	nRegs := int(f.MaxReg()) + 1
	for _, p := range f.Params {
		nRegs = max(nRegs, int(p)+1)
	}
	rd := &ReachingDefs{fn: f, defNum: make([]int, f.NumInstrIDs()), regRow: make([]int32, nRegs)}
	// Number definitions, giving each defined register a row, then list
	// them by number. Pseudo-defs for params come first.
	define := func(r ir.Reg) {
		if rd.regRow[r] == 0 {
			rd.nRows++
			rd.regRow[r] = int32(rd.nRows)
		}
	}
	for _, p := range f.Params {
		define(p)
	}
	nDefs := len(f.Params)
	f.Instrs(func(in *ir.Instr) {
		if d := in.Defs(); d != ir.NoReg {
			define(d)
			rd.defNum[in.ID] = nDefs
			nDefs++
		}
	})
	rd.defs = make([]*ir.Instr, nDefs)
	f.Instrs(func(in *ir.Instr) {
		if in.Defs() != ir.NoReg {
			rd.defs[rd.defNum[in.ID]] = in
		}
	})

	// Every set is a row of one table: one per defined register, then
	// reach-in, reach-out, gen and kill per block.
	n := len(f.Blocks)
	rd.sets = defTable{words: (nDefs + 63) / 64}
	rd.sets.bits = make([]uint64, rd.sets.words*(rd.nRows+4*n))
	reachOut := func(b *ir.Block) defSet { return rd.sets.row(rd.nRows + n + b.ID) }
	gen := func(b *ir.Block) defSet { return rd.sets.row(rd.nRows + 2*n + b.ID) }
	kill := func(b *ir.Block) defSet { return rd.sets.row(rd.nRows + 3*n + b.ID) }
	for i, p := range f.Params {
		rd.defsOf(p).add(i)
	}
	f.Instrs(func(in *ir.Instr) {
		if d := in.Defs(); d != ir.NoReg {
			rd.defsOf(d).add(rd.defNum[in.ID])
		}
	})

	for _, b := range f.Blocks {
		g, k := gen(b), kill(b)
		for _, in := range b.Instrs {
			d := in.Defs()
			if d == ir.NoReg {
				continue
			}
			all := rd.defsOf(d)
			k.unionWith(all)
			g.andNot(all)
			g.add(rd.defNum[in.ID])
		}
	}

	// Parameters reach the entry; of a repeated parameter, its last
	// pseudo-definition.
	for i, p := range f.Params {
		if !slices.Contains(f.Params[i+1:], p) {
			rd.reachIn(f.Entry()).add(i)
		}
	}
	order := rpo(f)
	out := make(defSet, rd.sets.words)
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			in := rd.reachIn(b)
			for _, p := range b.Preds {
				if in.unionWith(reachOut(p)) {
					changed = true
				}
			}
			copy(out, in)
			out.andNot(kill(b))
			out.unionWith(gen(b))
			if reachOut(b).unionWith(out) {
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
	// A first walk counts the chains and their definitions, so that the
	// second fills two arrays allocated at their final size: every
	// chain's Defs is a window of the one definitions array.
	nChains, nDefs := 0, 0
	rd.reaching(uses, func(_ *ir.Instr, _ ir.Reg, reach defSet) {
		if n := reach.count(); n > 0 {
			nChains++
			nDefs += n
		}
	})
	out := make([]UseChain, 0, nChains)
	defs := make([]*ir.Instr, 0, nDefs)
	rd.reaching(uses, func(in *ir.Instr, r ir.Reg, reach defSet) {
		start := len(defs)
		for w := range reach { // r's definitions that reach here, in def order
			for m := reach[w]; m != 0; m &= m - 1 {
				defs = append(defs, rd.defs[w*64+bits.TrailingZeros64(m)])
			}
		}
		if len(defs) > start {
			out = append(out, UseChain{Use: in, Reg: r, Defs: defs[start:len(defs):len(defs)]})
		}
	})
	return out
}

// reaching calls fn for every use of a defined register, in block layout
// order, with the set of that register's definitions that reach the use.
// The set is scratch, valid for the call.
func (rd *ReachingDefs) reaching(uses func(*ir.Instr) []ir.Reg, fn func(in *ir.Instr, r ir.Reg, reach defSet)) {
	words := rd.sets.words
	scratch := make(defSet, 2*words)
	cur, reach := scratch[:words:words], scratch[words:]
	for _, b := range rd.fn.Blocks {
		copy(cur, rd.reachIn(b))
		for _, in := range b.Instrs {
			for _, r := range dedupRegs(uses(in)) {
				ds := rd.defsOf(r)
				if ds == nil {
					continue
				}
				for w, d := range ds {
					reach[w] = d & cur[w]
				}
				fn(in, r, reach)
			}
			if d := in.Defs(); d != ir.NoReg {
				cur.andNot(rd.defsOf(d))
				cur.add(rd.defNum[in.ID])
			}
		}
	}
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
