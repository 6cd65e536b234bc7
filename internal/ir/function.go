package ir

import (
	"fmt"
	"slices"
)

// Function is a single-entry region of code: the unit the GMT scheduling
// framework parallelizes. In the paper this corresponds to an arbitrary
// intraprocedural region (a loop nest or whole procedure body).
type Function struct {
	Name string

	// Blocks lists the basic blocks; Blocks[i].ID == i and Blocks[0] is the
	// entry block.
	Blocks []*Block

	// Params are the registers holding the region's live-in values; the
	// interpreter and simulator initialize them before execution.
	Params []Reg

	// NumQueues is the number of synchronization-array queues referenced
	// by communication instructions (0 for single-threaded code).
	NumQueues int

	nextReg  Reg
	nextInst int

	// Room made by Reserve: NewBlock and NewInstr cut from these while
	// they last.
	blockSlab []Block
	instrSlab []Instr
}

// NewFunction returns an empty function with the given name.
func NewFunction(name string) *Function {
	return &Function{Name: name, nextReg: 1}
}

// Reserve makes room for blocks more blocks and instrs more instructions,
// so that NewBlock and NewInstr take them from one allocation each instead
// of allocating them one by one. A builder that knows the size of what it
// builds calls it first; past the room both allocate as before.
func (f *Function) Reserve(blocks, instrs int) {
	f.Blocks = slices.Grow(f.Blocks, blocks)
	f.blockSlab = make([]Block, 0, blocks)
	f.instrSlab = make([]Instr, 0, instrs)
}

// NewBlock appends a new empty block with the given name.
func (f *Function) NewBlock(name string) *Block {
	var b *Block
	if n := len(f.blockSlab); n < cap(f.blockSlab) {
		f.blockSlab = f.blockSlab[:n+1]
		b = &f.blockSlab[n]
	} else {
		b = new(Block)
	}
	*b = Block{ID: len(f.Blocks), Name: name, fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := f.nextReg
	f.nextReg++
	return r
}

// ReserveRegs ensures the next allocated register is at least r+1. It is
// used when constructing thread functions that share the original function's
// register name space.
func (f *Function) ReserveRegs(r Reg) {
	if f.nextReg <= r {
		f.nextReg = r + 1
	}
}

// MaxReg returns the highest allocated register number.
func (f *Function) MaxReg() Reg { return f.nextReg - 1 }

// NewInstr creates a detached instruction owned by this function's ID space.
func (f *Function) NewInstr(op Op, dst Reg, srcs ...Reg) *Instr {
	var in *Instr
	if n := len(f.instrSlab); n < cap(f.instrSlab) {
		f.instrSlab = f.instrSlab[:n+1]
		in = &f.instrSlab[n]
	} else {
		in = new(Instr)
	}
	*in = Instr{ID: f.nextInst, Op: op, Dst: dst, Srcs: srcs, Queue: NoQueue}
	f.nextInst++
	return in
}

// NumInstrIDs returns an upper bound (exclusive) on instruction IDs in the
// function, suitable for sizing ID-indexed tables.
func (f *Function) NumInstrIDs() int { return f.nextInst }

// Instrs calls fn for every instruction in block order then position order.
func (f *Function) Instrs(fn func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(in)
		}
	}
}

// NumInstrs returns the total number of instructions in the function.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// RetInstr returns the function's Ret instruction. Well-formed functions
// have exactly one; nil is returned otherwise.
func (f *Function) RetInstr() *Instr {
	var ret *Instr
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == Ret {
			if ret != nil {
				return nil
			}
			ret = t
		}
	}
	return ret
}

// LiveOuts returns the function's live-out registers (the sources of Ret).
func (f *Function) LiveOuts() []Reg {
	if ret := f.RetInstr(); ret != nil {
		return ret.Srcs
	}
	return nil
}

// BlockByName returns the block with the given name, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// SplitCriticalEdges inserts an empty block on every critical edge (an edge
// from a block with multiple successors to a block with multiple
// predecessors). Afterwards every CFG edge has a unique program point, which
// the communication-placement machinery relies on. It returns the number of
// edges split.
func (f *Function) SplitCriticalEdges() int {
	n := 0
	// Snapshot: splitting appends blocks.
	orig := append([]*Block(nil), f.Blocks...)
	for _, b := range orig {
		if len(b.Succs) < 2 {
			continue
		}
		for i, s := range b.Succs {
			if len(s.Preds) < 2 {
				continue
			}
			mid := f.NewBlock(fmt.Sprintf("%s.crit%d", b.Name, i))
			mid.Append(f.NewInstr(Jump, NoReg))
			// Rewire b's i-th successor to mid, preserving the
			// taken/fall-through slot order of Br.
			s.removePred(b)
			b.Succs[i] = mid
			mid.addPred(b)
			mid.Succs = []*Block{s}
			s.addPred(mid)
			n++
		}
	}
	return n
}
