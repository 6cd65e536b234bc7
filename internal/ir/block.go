package ir

// Block is a basic block: a maximal straight-line sequence of instructions
// ending in at most one terminator. Blocks form the nodes of a function's
// control-flow graph.
type Block struct {
	// ID is unique and dense within the enclosing function; Function.Blocks
	// is indexed by it.
	ID   int
	Name string

	// Instrs lists the block's instructions in execution order. If the
	// block has a terminator it is the last instruction.
	Instrs []*Instr

	// Succs are the control-flow successors. For a Br terminator Succs[0]
	// is the taken target and Succs[1] the not-taken target; a Jump has one
	// successor; a Ret has none.
	Succs []*Block
	// Preds are the control-flow predecessors, maintained by the function.
	Preds []*Block

	fn *Function
}

// Terminator returns the block's terminator instruction, or nil if the block
// is unterminated (only legal while under construction).
func (b *Block) Terminator() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// Body returns the block's instructions excluding the terminator.
func (b *Block) Body() []*Instr {
	if b.Terminator() != nil {
		return b.Instrs[:len(b.Instrs)-1]
	}
	return b.Instrs
}

// Append adds an instruction to the end of the block (before nothing); the
// caller must ensure terminator invariants.
func (b *Block) Append(in *Instr) {
	in.blk = b
	b.Instrs = append(b.Instrs, in)
}

// InsertAt inserts an instruction so that it becomes b.Instrs[idx].
// idx == len(b.Instrs) appends.
func (b *Block) InsertAt(idx int, in *Instr) {
	in.blk = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// addPred records p as a predecessor of b.
func (b *Block) addPred(p *Block) { b.Preds = append(b.Preds, p) }

// removePred removes p from b's predecessor list.
func (b *Block) removePred(p *Block) {
	for i, q := range b.Preds {
		if q == p {
			b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
			return
		}
	}
}

// SetSuccs replaces the block's successor list, updating predecessor lists on
// both the old and new successors.
func (b *Block) SetSuccs(succs ...*Block) {
	for _, s := range b.Succs {
		s.removePred(b)
	}
	b.Succs = append(b.Succs[:0:0], succs...)
	for _, s := range b.Succs {
		s.addPred(b)
	}
}
