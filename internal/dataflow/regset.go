// Package dataflow implements the bit-vector data-flow analyses used by the
// GMT scheduling framework: classic liveness and reaching definitions for
// PDG construction, and the paper's thread-aware analyses — liveness with
// respect to a target thread and the SAFE analysis of equations (1)–(2) —
// that drive COCO's communication placement.
package dataflow

import (
	"math/bits"

	"repro/internal/ir"
)

// RegSet is a bit set over virtual registers. The zero value is unusable;
// allocate with NewRegSet.
type RegSet []uint64

// NewRegSet returns an empty set able to hold registers 0..max.
func NewRegSet(max ir.Reg) RegSet { return make(RegSet, regWords(max)) }

// regWords is the length of a set able to hold registers 0..max.
func regWords(max ir.Reg) int { return (int(max) + 64) / 64 }

// newRegSets returns n empty sets for registers 0..max carved from one
// backing array: an analysis allocates its per-block sets in one piece.
func newRegSets(n int, max ir.Reg) []RegSet {
	words := regWords(max)
	backing := make([]uint64, n*words)
	sets := make([]RegSet, n)
	for i := range sets {
		sets[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return sets
}

// Add inserts r.
func (s RegSet) Add(r ir.Reg) { s[int(r)/64] |= 1 << (uint(r) % 64) }

// Remove deletes r.
func (s RegSet) Remove(r ir.Reg) { s[int(r)/64] &^= 1 << (uint(r) % 64) }

// Has reports whether r is in the set.
func (s RegSet) Has(r ir.Reg) bool { return s[int(r)/64]&(1<<(uint(r)%64)) != 0 }

// Clone returns an independent copy.
func (s RegSet) Clone() RegSet { return append(RegSet(nil), s...) }

// CopyFrom overwrites s with o (same capacity required).
func (s RegSet) CopyFrom(o RegSet) { copy(s, o) }

// Clear empties the set.
func (s RegSet) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Fill makes the set universal over its capacity.
func (s RegSet) Fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

// UnionWith adds all elements of o, reporting whether s changed.
func (s RegSet) UnionWith(o RegSet) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// IntersectWith removes elements not in o, reporting whether s changed.
func (s RegSet) IntersectWith(o RegSet) bool {
	changed := false
	for i := range s {
		n := s[i] & o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Equal reports whether the sets hold the same registers.
func (s RegSet) Equal(o RegSet) bool {
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no elements.
func (s RegSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of registers in the set.
func (s RegSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Regs returns the set's elements in increasing order.
func (s RegSet) Regs() []ir.Reg {
	var out []ir.Reg
	for i, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, ir.Reg(i*64+b))
			w &= w - 1
		}
	}
	return out
}

// PointSets holds one register set for every instruction position of a
// function: the point before each instruction and each block's exit. A
// thread-aware analysis fills it once (Liveness.Points, Safety.Points) and
// its client then reads single bits, so placing many registers over the
// same analysis costs one pass over the function, not one per register.
// The storage is one array, reusable across fills.
type PointSets struct {
	start []int // block ID -> position of the point before its first instruction
	words int
	bits  []uint64
}

// NewPointSets returns empty sets for every position of f.
func NewPointSets(f *ir.Function) *PointSets {
	p := &PointSets{start: make([]int, len(f.Blocks)), words: regWords(f.MaxReg())}
	n := 0
	for _, b := range f.Blocks {
		p.start[b.ID] = n
		n += len(b.Instrs) + 1
	}
	p.bits = make([]uint64, n*p.words)
	return p
}

// Positions returns the number of instruction positions of f: the points
// before its instructions and its blocks' exits.
func Positions(f *ir.Function) int {
	return f.NumInstrs() + len(f.Blocks)
}

// PointSetsBytes returns what NewPointSets(f) allocates for its sets,
// without allocating it: a register set as wide as f's highest register at
// each of f's positions.
func PointSetsBytes(f *ir.Function) int64 {
	return int64(Positions(f)) * int64(regWords(f.MaxReg())) * 8
}

// Pos returns the position of the point immediately before b.Instrs[i];
// i == len(b.Instrs) is the block's exit.
func (p *PointSets) Pos(b *ir.Block, i int) int { return p.start[b.ID] + i }

// At returns the set at a position. It aliases the table.
func (p *PointSets) At(pos int) RegSet { return p.bits[pos*p.words : (pos+1)*p.words] }

// Has reports whether r is in the set at a position.
func (p *PointSets) Has(pos int, r ir.Reg) bool {
	return p.bits[pos*p.words+int(r)/64]&(1<<(uint(r)%64)) != 0
}
