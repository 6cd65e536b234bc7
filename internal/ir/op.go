// Package ir defines the assembly-level intermediate representation used by
// the global multi-threaded (GMT) instruction scheduling framework.
//
// The IR mirrors the representation the VELOCITY compiler operates on in the
// paper: a low-level, non-SSA register machine. Functions are control-flow
// graphs of basic blocks; instructions read and write virtual registers and a
// flat word-addressed memory. Inter-thread communication is expressed with
// produce/consume instructions over numbered hardware queues (the
// synchronization array).
//
// Because the IR is non-SSA and every generated thread owns a private
// register file, only flow (definition to use) register dependences ever
// cross threads — exactly the dependence model assumed by the MTCG
// algorithm.
package ir

import "strconv"

// Op identifies an instruction opcode.
type Op uint8

// Opcode space. Arithmetic is on signed 64-bit integers; the F-prefixed
// opcodes operate on float64 values stored bit-for-bit in registers and are
// dispatched to the FP units by the machine model.
const (
	Nop Op = iota

	// Data movement.
	Const // dst = Imm
	Mov   // dst = src0

	// Integer arithmetic and logic.
	Add // dst = src0 + src1
	Sub // dst = src0 - src1
	Mul // dst = src0 * src1
	Div // dst = src0 / src1 (src1 != 0; 0 otherwise)
	Rem // dst = src0 % src1 (src1 != 0; 0 otherwise)
	And // dst = src0 & src1
	Or  // dst = src0 | src1
	Xor // dst = src0 ^ src1
	Shl // dst = src0 << (src1 & 63)
	Shr // dst = src0 >> (src1 & 63), arithmetic
	Neg // dst = -src0
	Not // dst = ^src0
	Abs // dst = |src0|

	// Integer comparisons, producing 0 or 1.
	CmpEQ // dst = src0 == src1
	CmpNE // dst = src0 != src1
	CmpLT // dst = src0 < src1
	CmpLE // dst = src0 <= src1
	CmpGT // dst = src0 > src1
	CmpGE // dst = src0 >= src1

	// Floating point (float64 bits held in integer registers).
	FAdd   // dst = src0 +. src1
	FSub   // dst = src0 -. src1
	FMul   // dst = src0 *. src1
	FDiv   // dst = src0 /. src1
	FNeg   // dst = -.src0
	FAbs   // dst = |src0|.
	FSqrt  // dst = sqrt(src0)
	FCmpLT // dst = src0 <. src1 (0 or 1)
	FCmpGT // dst = src0 >. src1 (0 or 1)
	ItoF   // dst = float64(src0)
	FtoI   // dst = int64(src0)

	// Memory. Addresses are word indices into a flat memory; the effective
	// address is src-register + Imm.
	Load  // dst = mem[src0 + Imm]
	Store // mem[src1 + Imm] = src0

	// Control flow (block terminators).
	Br   // if src0 != 0 goto Succs[0] else Succs[1]
	Jump // goto Succs[0]
	Ret  // end of region; Srcs lists the function's live-out registers

	// Inter-thread communication over the synchronization array. Queue
	// selects the hardware queue. The .sync forms carry no operand and
	// have acquire/release memory semantics; they implement inter-thread
	// memory dependences.
	Produce     // queue[Queue] <- src0
	Consume     // dst = <-queue[Queue]
	ProduceSync // queue[Queue] <- token
	ConsumeSync // <-queue[Queue]

	numOps
)

var opNames = [numOps]string{
	Nop: "nop", Const: "const", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	Neg: "neg", Not: "not", Abs: "abs",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv",
	FNeg: "fneg", FAbs: "fabs", FSqrt: "fsqrt", FCmpLT: "fcmplt", FCmpGT: "fcmpgt",
	ItoF: "itof", FtoI: "ftoi",
	Load: "load", Store: "store",
	Br: "br", Jump: "jump", Ret: "ret",
	Produce: "produce", Consume: "consume",
	ProduceSync: "produce.sync", ConsumeSync: "consume.sync",
}

// String returns the assembler mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// IsTerminator reports whether the opcode ends a basic block.
func (op Op) IsTerminator() bool { return op == Br || op == Jump || op == Ret }

// IsMemAccess reports whether the opcode reads or writes program memory.
func (op Op) IsMemAccess() bool { return op == Load || op == Store }

// IsComm reports whether the opcode is an inter-thread communication or
// synchronization instruction inserted by multi-threaded code generation.
func (op Op) IsComm() bool {
	return op == Produce || op == Consume || op == ProduceSync || op == ConsumeSync
}

// IsFloat reports whether the opcode executes on the floating-point units.
func (op Op) IsFloat() bool {
	switch op {
	case FAdd, FSub, FMul, FDiv, FNeg, FAbs, FSqrt, FCmpLT, FCmpGT, ItoF, FtoI:
		return true
	}
	return false
}

// HasDst reports whether instructions with this opcode define a register.
func (op Op) HasDst() bool {
	switch op {
	case Nop, Store, Br, Jump, Ret, Produce, ProduceSync, ConsumeSync:
		return false
	}
	return true
}

// NumSrcs returns the number of register sources the opcode reads. Ret is
// variadic (its sources are the live-out registers) and returns -1.
func (op Op) NumSrcs() int {
	switch op {
	case Nop, Const, Jump, ProduceSync, ConsumeSync, Consume:
		return 0
	case Mov, Neg, Not, Abs, FNeg, FAbs, FSqrt, ItoF, FtoI, Load, Br, Produce:
		return 1
	case Ret:
		return -1
	}
	return 2
}
