package ir

import (
	"testing"
)

const sampleText = `
func sample(r1, r2)
entry:
	r3 = const 5
	r4 = add r1, r3
	store [r4+2] = r3
	r5 = load [r4+0]
	r6 = cmplt r5, r2
	br r6 then, join
then:
	r7 = mul r5, r5
	jump join
join:
	ret r5
`

func TestParseSample(t *testing.T) {
	f, err := Parse(sampleText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if f.Name != "sample" {
		t.Errorf("name = %q", f.Name)
	}
	if len(f.Params) != 2 {
		t.Errorf("params = %d, want 2", len(f.Params))
	}
	if len(f.Blocks) != 3 {
		t.Errorf("blocks = %d, want 3", len(f.Blocks))
	}
	entry := f.BlockByName("entry")
	if got := entry.Instrs[0].Op; got != Const {
		t.Errorf("first instr op = %v, want const", got)
	}
	if got := entry.Instrs[0].Imm; got != 5 {
		t.Errorf("const imm = %d, want 5", got)
	}
	if got := entry.Instrs[2]; got.Op != Store || got.Imm != 2 {
		t.Errorf("store parsed as %v (imm %d)", got, got.Imm)
	}
	if succs := entry.Succs; len(succs) != 2 || succs[0].Name != "then" || succs[1].Name != "join" {
		t.Errorf("entry succs wrong: %v", succs)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	f, err := Parse(sampleText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	text := f.String()
	g, err := Parse(text)
	if err != nil {
		t.Fatalf("re-Parse printed form: %v\n%s", err, text)
	}
	if got := g.String(); got != text {
		t.Errorf("round trip diverged:\nfirst:\n%s\nsecond:\n%s", text, got)
	}
}

func TestParseCommunicationInstructions(t *testing.T) {
	text := `
func comm(r1)
entry:
	produce [q0] = r1
	r2 = consume [q3]
	produce.sync [q1]
	consume.sync [q2]
	ret r2
`
	f, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.NumQueues != 4 {
		t.Errorf("NumQueues = %d, want 4 (max queue 3)", f.NumQueues)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	ops := []Op{Produce, Consume, ProduceSync, ConsumeSync, Ret}
	for i, in := range f.Entry().Instrs {
		if in.Op != ops[i] {
			t.Errorf("instr %d op = %v, want %v", i, in.Op, ops[i])
		}
	}
}

func TestParseNegativeImmediates(t *testing.T) {
	text := `
func neg(r1)
entry:
	r2 = const -32768
	r3 = load [r1+-3]
	store [r1+-7] = r2
	ret r3
`
	f, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ins := f.Entry().Instrs
	if ins[0].Imm != -32768 || ins[1].Imm != -3 || ins[2].Imm != -7 {
		t.Errorf("immediates = %d %d %d", ins[0].Imm, ins[1].Imm, ins[2].Imm)
	}
}

// parseErrorCases are texts Parse must refuse; FuzzParse seeds from them.
var parseErrorCases = []struct {
	name, text string
}{
	{"no header", "entry:\n\tret\n"},
	{"dup header", "func a()\nfunc b()\nentry:\n\tret\n"},
	{"instr outside block", "func a()\nr1 = const 1\n"},
	{"unknown op", "func a()\nentry:\n\tr1 = frobnicate r1\n\tret\n"},
	{"bad register", "func a()\nentry:\n\tx1 = const 1\n\tret\n"},
	{"unknown target", "func a()\nentry:\n\tjump nowhere\n"},
	{"dup block", "func a()\nentry:\n\tret\nentry:\n\tret\n"},
	{"wrong arity", "func a(r1)\nentry:\n\tr2 = add r1\n\tret\n"},
	{"bad queue", "func a(r1)\nentry:\n\tproduce [x0] = r1\n\tret\n"},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.text); err == nil {
				t.Errorf("Parse accepted %q", tc.text)
			}
		})
	}
}

func TestMustParsePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("garbage")
}

func TestParseRoundTripAllOpcodeForms(t *testing.T) {
	// Build a function using the builder, print it, reparse, reprint.
	b := NewBuilder("every")
	x := b.Param()
	y := b.Param()
	loop := b.Block("loop")
	exit := b.Block("exit")
	f1 := b.FAdd(b.ItoF(x), b.FConst(1.5))
	f2 := b.FMul(f1, f1)
	i := b.FtoI(b.Op1(FSqrt, f2))
	b.Jump(loop)
	b.SetBlock(loop)
	v := b.Abs(b.Sub(i, y))
	c := b.CmpGT(v, b.Const(3))
	b.Br(c, exit, loop)
	b.SetBlock(exit)
	b.Ret(v)

	text := b.F.String()
	g, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if got := g.String(); got != text {
		t.Errorf("round trip diverged:\n%s\nvs\n%s", text, got)
	}
	if err := g.Verify(); err != nil {
		t.Errorf("Verify after parse: %v", err)
	}
}
