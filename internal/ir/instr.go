package ir

import "strconv"

// Reg names a virtual register. Register 0 is the invalid register; the
// framework never allocates it.
type Reg int

// NoReg is the invalid register.
const NoReg Reg = 0

// String returns the assembler spelling of the register, e.g. "r7".
func (r Reg) String() string {
	if r == NoReg {
		return "r?"
	}
	return string(r.appendTo(make([]byte, 0, 8)))
}

// appendTo appends the register's spelling to b.
func (r Reg) appendTo(b []byte) []byte {
	if r == NoReg {
		return append(b, "r?"...)
	}
	return strconv.AppendInt(append(b, 'r'), int64(r), 10)
}

// NoQueue marks an instruction that does not use a communication queue.
const NoQueue = -1

// Instr is a single IR instruction. Instructions belong to exactly one basic
// block and carry a function-unique ID that all analyses key on.
type Instr struct {
	// ID is unique within the enclosing function and stable across
	// analyses. IDs order instructions arbitrarily, not by position.
	ID int

	Op   Op
	Dst  Reg   // defined register, NoReg if none
	Srcs []Reg // source registers (live-out list for Ret)
	Imm  int64 // immediate constant / memory offset

	// Queue is the synchronization-array queue used by communication
	// instructions; NoQueue otherwise.
	Queue int

	// Orig points to the original-program instruction this one was copied
	// from during multi-threaded code generation (branch duplication,
	// instruction placement). It is nil in source functions.
	Orig *Instr

	blk *Block
}

// Block returns the basic block containing the instruction, or nil if the
// instruction is detached.
func (in *Instr) Block() *Block { return in.blk }

// Defs returns the register defined by the instruction, or NoReg.
func (in *Instr) Defs() Reg { return in.Dst }

// Uses returns the registers read by the instruction. The returned slice
// aliases the instruction; callers must not modify it.
func (in *Instr) Uses() []Reg { return in.Srcs }

// UsesReg reports whether the instruction reads register r.
func (in *Instr) UsesReg(r Reg) bool {
	for _, s := range in.Srcs {
		if s == r {
			return true
		}
	}
	return false
}

// IsTerminator reports whether the instruction ends its block.
func (in *Instr) IsTerminator() bool { return in.Op.IsTerminator() }

// Index returns the instruction's position within its block, or -1 if the
// instruction is detached. It is a linear scan; analyses that need fast
// position lookup should build their own index.
func (in *Instr) Index() int {
	if in.blk == nil {
		return -1
	}
	for i, other := range in.blk.Instrs {
		if other == in {
			return i
		}
	}
	return -1
}

// String renders the instruction in assembler-like syntax.
func (in *Instr) String() string {
	return string(in.appendTo(make([]byte, 0, 32)))
}

// appendTo appends the instruction's assembler text to b. A branch names
// its targets by their block names; Function.String, which must tell
// blocks of one name apart, prints branches itself.
func (in *Instr) appendTo(b []byte) []byte {
	switch in.Op {
	case Const:
		b = append(in.Dst.appendTo(b), " = const "...)
		b = strconv.AppendInt(b, in.Imm, 10)
	case Load:
		b = append(in.Dst.appendTo(b), " = load "...)
		b = appendMem(b, in.Srcs[0], in.Imm)
	case Store:
		b = append(appendMem(append(b, "store "...), in.Srcs[1], in.Imm), " = "...)
		b = in.Srcs[0].appendTo(b)
	case Br:
		b = in.Srcs[0].appendTo(append(b, "br "...))
		if in.blk != nil && len(in.blk.Succs) == 2 {
			b = append(append(b, ' '), in.blk.Succs[0].Name...)
			b = append(append(b, ", "...), in.blk.Succs[1].Name...)
		}
	case Jump:
		b = append(b, "jump"...)
		if in.blk != nil && len(in.blk.Succs) == 1 {
			b = append(append(b, ' '), in.blk.Succs[0].Name...)
		}
	case Ret:
		b = append(b, "ret"...)
		for i, s := range in.Srcs {
			if i > 0 {
				b = append(b, ',')
			}
			b = s.appendTo(append(b, ' '))
		}
	case Produce:
		b = append(appendQueue(append(b, "produce "...), in.Queue), " = "...)
		b = in.Srcs[0].appendTo(b)
	case Consume:
		b = appendQueue(append(in.Dst.appendTo(b), " = consume "...), in.Queue)
	case ProduceSync:
		b = appendQueue(append(b, "produce.sync "...), in.Queue)
	case ConsumeSync:
		b = appendQueue(append(b, "consume.sync "...), in.Queue)
	default:
		if in.Op.HasDst() {
			b = append(in.Dst.appendTo(b), " = "...)
		}
		b = append(b, in.Op.String()...)
		for i, s := range in.Srcs {
			if i == 0 {
				b = append(b, ' ')
			} else {
				b = append(b, ", "...)
			}
			b = s.appendTo(b)
		}
	}
	return b
}

// appendMem appends a memory operand, "[rN+OFF]"; a negative offset keeps
// the '+' ("[r1+-3]"), which is what Parse splits on.
func appendMem(b []byte, base Reg, off int64) []byte {
	b = append(base.appendTo(append(b, '[')), '+')
	return append(strconv.AppendInt(b, off, 10), ']')
}

// appendQueue appends a queue operand, "[qN]".
func appendQueue(b []byte, q int) []byte {
	return append(strconv.AppendInt(append(b, "[q"...), int64(q), 10), ']')
}
