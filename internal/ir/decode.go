package ir

// Decoded is an executor's flattened view of one instruction. An *Instr
// spreads the fields an executor touches on every visit (opcode, sources,
// destination, immediate) across a pointer-rich heap object plus a
// separately allocated Srcs slice — two to three cache lines per visit.
// Decoding once per run packs them into a contiguous 32-byte record, two to
// a cache line, with the first two sources inline and control flow resolved
// to positions in the stream, so a hot loop is one indexed load and a switch
// per instruction. The originating *Instr — needed only off the hot path:
// the Eval fallback, a Ret's live-out list, error text — sits in the
// parallel Stream.Instrs slice.
type Decoded struct {
	Imm int64
	// Dst is the destination register; on a Br or Jump, which define none,
	// it holds the taken target instead (see Taken).
	Dst int32
	S0  int32
	// S1 is the second source register; on a Br, which reads one, it holds
	// the fallthrough target instead (see Fall).
	S1    int32
	ID    int32
	Queue int32
	Op    Op
	// Tag is the executor's own byte: Decode leaves it zero, and whoever
	// owns the stream may fill it with what it would otherwise look up per
	// visit (the simulator's issue-port class, the interpreter's
	// replicated-branch mark).
	Tag uint8
	// NSrc is len(Srcs) clamped to 3: it tells 0, 1 and 2 sources from
	// "more", which only a Ret's live-out list has — and that is walked
	// through the originating instruction.
	NSrc uint8
}

// Taken is the pc a Jump, or a Br whose condition is non-zero, continues
// at: the first instruction of Succs[0].
func (d *Decoded) Taken() int { return int(d.Dst) }

// Fall is the pc a Br whose condition is zero continues at: the first
// instruction of Succs[1].
func (d *Decoded) Fall() int { return int(d.S1) }

// Stream is one function decoded for execution: its blocks laid end to end
// in Blocks order, so a program counter is an index into Code, pc 0 is the
// entry block's first instruction, and falling through a non-terminator is
// pc+1.
type Stream struct {
	Code []Decoded
	// Instrs[pc] is the instruction Code[pc] was decoded from (nil for the
	// Jump Decode closes an unterminated block with, which no executor
	// looks behind).
	Instrs []*Instr
	starts []int32 // index in Blocks -> pc of the block's first instruction
}

// Decode fills s with f's instructions. It accepts any function, as
// walking the blocks does: what Verify would reject costs nothing until
// execution gets there. A flat stream has no block boundary to stop at, so
// the places where a walk would have indexed out of range become traps —
// a Br or Jump whose successor is missing or belongs to another function
// targets itself, and a block with no terminator is closed by a Jump to
// itself: a run that reaches one spins there until its step or cycle budget
// reports it, and a run that does not never notices.
func (s *Stream) Decode(f *Function) {
	n := 0
	s.starts = s.starts[:0]
	for _, b := range f.Blocks {
		s.starts = append(s.starts, int32(n))
		n += len(b.Instrs)
		if b.Terminator() == nil {
			n++
		}
	}
	s.Code = make([]Decoded, n)
	s.Instrs = make([]*Instr, n)
	pc := int32(0)
	target := func(b *Block, i int) int32 {
		if i >= len(b.Succs) {
			return pc
		}
		t := b.Succs[i]
		if t.ID < 0 || t.ID >= len(f.Blocks) || f.Blocks[t.ID] != t {
			return pc
		}
		return s.starts[t.ID]
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			d := Decoded{
				Imm: in.Imm, Dst: int32(in.Dst), ID: int32(in.ID), Queue: int32(in.Queue),
				Op: in.Op, NSrc: uint8(min(len(in.Srcs), 3)),
			}
			if len(in.Srcs) > 0 {
				d.S0 = int32(in.Srcs[0])
			}
			if len(in.Srcs) > 1 {
				d.S1 = int32(in.Srcs[1])
			}
			switch in.Op {
			case Br:
				d.Dst, d.S1 = target(b, 0), target(b, 1)
			case Jump:
				d.Dst = target(b, 0)
			}
			s.Code[pc], s.Instrs[pc] = d, in
			pc++
		}
		if b.Terminator() == nil {
			s.Code[pc], s.Instrs[pc] = Decoded{Op: Jump, Dst: pc, Queue: NoQueue}, nil
			pc++
		}
	}
}
