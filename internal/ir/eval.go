package ir

import "math"

// Eval applies the instruction to the register file when it is a pure
// function of its operands — data movement, integer and floating-point
// arithmetic, comparisons, conversions and Nop — and reports true. Control
// flow, memory access and communication need state the register file does
// not hold (a program counter, memory, the synchronization array): for
// those, and for opcodes outside the table, Eval reports false and leaves
// regs untouched. This is the one definition of the ISA's arithmetic; the
// interpreter and the timing simulator both execute through it.
func (in *Instr) Eval(regs []int64) bool {
	get := func(i int) int64 { return regs[in.Srcs[i]] }
	fget := func(i int) float64 { return Float64FromBits(uint64(get(i))) }
	setf := func(v float64) { regs[in.Dst] = int64(Float64Bits(v)) }
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch in.Op {
	case Nop:
	case Const:
		regs[in.Dst] = in.Imm
	case Mov:
		regs[in.Dst] = get(0)
	case Add:
		regs[in.Dst] = get(0) + get(1)
	case Sub:
		regs[in.Dst] = get(0) - get(1)
	case Mul:
		regs[in.Dst] = get(0) * get(1)
	case Div:
		// Division by zero is defined (0), so no input can trap an executor.
		if get(1) == 0 {
			regs[in.Dst] = 0
		} else {
			regs[in.Dst] = get(0) / get(1)
		}
	case Rem:
		if get(1) == 0 {
			regs[in.Dst] = 0
		} else {
			regs[in.Dst] = get(0) % get(1)
		}
	case And:
		regs[in.Dst] = get(0) & get(1)
	case Or:
		regs[in.Dst] = get(0) | get(1)
	case Xor:
		regs[in.Dst] = get(0) ^ get(1)
	case Shl:
		regs[in.Dst] = get(0) << (uint64(get(1)) & 63)
	case Shr:
		regs[in.Dst] = get(0) >> (uint64(get(1)) & 63)
	case Neg:
		regs[in.Dst] = -get(0)
	case Not:
		regs[in.Dst] = ^get(0)
	case Abs:
		v := get(0)
		if v < 0 {
			v = -v
		}
		regs[in.Dst] = v
	case CmpEQ:
		regs[in.Dst] = b2i(get(0) == get(1))
	case CmpNE:
		regs[in.Dst] = b2i(get(0) != get(1))
	case CmpLT:
		regs[in.Dst] = b2i(get(0) < get(1))
	case CmpLE:
		regs[in.Dst] = b2i(get(0) <= get(1))
	case CmpGT:
		regs[in.Dst] = b2i(get(0) > get(1))
	case CmpGE:
		regs[in.Dst] = b2i(get(0) >= get(1))
	case FAdd:
		setf(fget(0) + fget(1))
	case FSub:
		setf(fget(0) - fget(1))
	case FMul:
		setf(fget(0) * fget(1))
	case FDiv:
		setf(fget(0) / fget(1))
	case FNeg:
		setf(-fget(0))
	case FAbs:
		v := fget(0)
		if v < 0 {
			v = -v
		}
		setf(v)
	case FSqrt:
		setf(math.Sqrt(fget(0)))
	case FCmpLT:
		regs[in.Dst] = b2i(fget(0) < fget(1))
	case FCmpGT:
		regs[in.Dst] = b2i(fget(0) > fget(1))
	case ItoF:
		setf(float64(get(0)))
	case FtoI:
		regs[in.Dst] = int64(fget(0))
	default:
		return false
	}
	return true
}
