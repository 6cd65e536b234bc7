package ir

import (
	"math"
	"testing"
)

// TestEvalALU pins Eval — the one definition of the ISA's arithmetic —
// against literals, corner cases included: division by zero is 0, shift
// counts are masked to six bits, negating MinInt64 wraps, and a float
// comparison with NaN is false.
func TestEvalALU(t *testing.T) {
	const minInt = math.MinInt64
	f := func(v float64) int64 { return int64(Float64Bits(v)) }
	nan := f(math.NaN())
	cases := []struct {
		op   Op
		a, b int64 // src0, src1 (b unused by unary opcodes)
		imm  int64
		want int64
	}{
		{op: Const, imm: -7, want: -7},
		{op: Mov, a: 42, want: 42},
		{op: Add, a: 5, b: -8, want: -3},
		{op: Add, a: math.MaxInt64, b: 1, want: minInt},
		{op: Sub, a: 5, b: 8, want: -3},
		{op: Mul, a: -6, b: 7, want: -42},
		{op: Div, a: -7, b: 2, want: -3},
		{op: Div, a: 9, b: 0, want: 0},
		{op: Div, a: minInt, b: -1, want: minInt},
		{op: Rem, a: -7, b: 2, want: -1},
		{op: Rem, a: 9, b: 0, want: 0},
		{op: Rem, a: minInt, b: -1, want: 0},
		{op: And, a: 0b1100, b: 0b1010, want: 0b1000},
		{op: Or, a: 0b1100, b: 0b1010, want: 0b1110},
		{op: Xor, a: 0b1100, b: 0b1010, want: 0b0110},
		{op: Shl, a: 3, b: 2, want: 12},
		{op: Shl, a: 3, b: 64, want: 3},
		{op: Shl, a: 3, b: 65, want: 6},
		{op: Shr, a: -8, b: 1, want: -4},
		{op: Shr, a: -8, b: 64, want: -8},
		{op: Shr, a: -8, b: -1, want: -1},
		{op: Neg, a: 5, want: -5},
		{op: Neg, a: minInt, want: minInt},
		{op: Not, a: 0, want: -1},
		{op: Abs, a: -5, want: 5},
		{op: Abs, a: 5, want: 5},
		{op: Abs, a: minInt, want: minInt},
		{op: CmpEQ, a: 2, b: 2, want: 1},
		{op: CmpEQ, a: 2, b: 3, want: 0},
		{op: CmpNE, a: 2, b: 3, want: 1},
		{op: CmpNE, a: 2, b: 2, want: 0},
		{op: CmpLT, a: -1, b: 0, want: 1},
		{op: CmpLT, a: 0, b: 0, want: 0},
		{op: CmpLE, a: 0, b: 0, want: 1},
		{op: CmpLE, a: 1, b: 0, want: 0},
		{op: CmpGT, a: 1, b: 0, want: 1},
		{op: CmpGT, a: 0, b: 0, want: 0},
		{op: CmpGE, a: 0, b: 0, want: 1},
		{op: CmpGE, a: -1, b: 0, want: 0},
		{op: FAdd, a: f(1.5), b: f(2.25), want: f(3.75)},
		{op: FSub, a: f(1.5), b: f(2.25), want: f(-0.75)},
		{op: FMul, a: f(1.5), b: f(-2), want: f(-3)},
		{op: FDiv, a: f(1), b: f(4), want: f(0.25)},
		{op: FDiv, a: f(1), b: f(0), want: f(math.Inf(1))},
		{op: FNeg, a: f(2.5), want: f(-2.5)},
		{op: FAbs, a: f(-2.5), want: f(2.5)},
		{op: FAbs, a: f(2.5), want: f(2.5)},
		{op: FSqrt, a: f(9), want: f(3)},
		{op: FSqrt, a: f(-1), want: nan},
		{op: FCmpLT, a: f(1), b: f(2), want: 1},
		{op: FCmpLT, a: f(2), b: f(1), want: 0},
		{op: FCmpLT, a: nan, b: f(1), want: 0},
		{op: FCmpLT, a: f(1), b: nan, want: 0},
		{op: FCmpGT, a: f(2), b: f(1), want: 1},
		{op: FCmpGT, a: f(1), b: f(2), want: 0},
		{op: FCmpGT, a: nan, b: f(1), want: 0},
		{op: FCmpGT, a: f(1), b: nan, want: 0},
		{op: ItoF, a: -3, want: f(-3)},
		{op: FtoI, a: f(2.9), want: 2},
		{op: FtoI, a: f(-2.9), want: -2},
	}
	covered := map[Op]bool{Nop: true}
	fn := NewFunction("alu")
	for _, tc := range cases {
		covered[tc.op] = true
		in := fn.NewInstr(tc.op, 3, []Reg{1, 2}[:tc.op.NumSrcs()]...)
		in.Imm = tc.imm
		regs := []int64{0, tc.a, tc.b, 0x5ca1ab1e}
		if !in.Eval(regs) {
			t.Errorf("%v(%d, %d): Eval reported false", tc.op, tc.a, tc.b)
			continue
		}
		got := regs[3]
		if tc.want == nan {
			if !math.IsNaN(Float64FromBits(uint64(got))) {
				t.Errorf("%v(%d): got %#x, want NaN", tc.op, tc.a, got)
			}
		} else if got != tc.want {
			t.Errorf("%v(%d, %d) imm %d = %d, want %d", tc.op, tc.a, tc.b, tc.imm, got, tc.want)
		}
		if regs[1] != tc.a || regs[2] != tc.b {
			t.Errorf("%v: Eval wrote a source register: %v", tc.op, regs)
		}
	}

	// Nop evaluates (to nothing); everything Eval declines must leave the
	// register file alone. Between them the two lists cover the opcode
	// table, so a new opcode cannot land without a case here.
	regs := []int64{0, 11, 22, 33}
	if !fn.NewInstr(Nop, NoReg).Eval(regs) {
		t.Error("nop: Eval reported false")
	}
	for _, op := range []Op{Load, Store, Br, Jump, Ret, Produce, Consume, ProduceSync, ConsumeSync, numOps} {
		covered[op] = true
		in := fn.NewInstr(op, 3, 1, 2)
		in.Queue = 0
		if in.Eval(regs) {
			t.Errorf("%v: Eval reported true for a non-ALU opcode", op)
		}
	}
	if regs[0] != 0 || regs[1] != 11 || regs[2] != 22 || regs[3] != 33 {
		t.Errorf("Eval touched the registers of an opcode it declined: %v", regs)
	}
	for op := Nop; op < numOps; op++ {
		if !covered[op] {
			t.Errorf("opcode %v has no Eval case in this test", op)
		}
	}
}
