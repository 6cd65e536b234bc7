package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reconstructs a Function from the textual form produced by
// Function.String, enabling golden tests and file-based test cases. Memory
// objects are not part of the textual form; callers that need alias
// information must supply an object table separately.
//
// The grammar (one instruction per line, blocks introduced by "name:"):
//
//	func name(r1, r2)
//	entry:
//		r3 = const 5
//		r4 = add r1, r3
//		store [r4+2] = r3
//		r5 = load [r4+0]
//		produce [q0] = r5
//		r6 = consume [q1]
//		br r6 then, else
//	then: ...
func Parse(text string) (*Function, error) {
	// Most lines of a function's text are instructions; the bound keeps a
	// text of blank lines from reserving more than 8 KiB of pointers.
	p := &parser{body: make([]*Instr, 0, min(strings.Count(text, "\n"), 16*slabSize))}
	for num, rest, more := 1, text, true; more; num++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		line, _, _ := strings.Cut(raw, ";")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("ir: line %d: %q: %w", num, raw, err)
		}
	}
	if p.f == nil {
		return nil, fmt.Errorf("ir: no function header")
	}
	p.endBlock()
	if err := p.resolve(); err != nil {
		return nil, err
	}
	return p.f, nil
}

// MustParse is Parse for tests and examples with known-good text.
func MustParse(text string) *Function {
	f, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return f
}

type pendingBranch struct {
	block   *Block
	targets [2]string
	n       int // targets in use: 1 for a jump, 2 for a br
}

// slabSize is how many instructions, or operands, one allocation of the
// parser's slabs holds.
const slabSize = 64

type parser struct {
	f        *Function
	cur      *Block
	blocks   map[string]*Block
	pending  []pendingBranch
	maxQueue int

	// A parsed function's instructions and their operands are carved from
	// slabs rather than allocated one by one, and every block's Instrs is
	// a capacity-capped window of body, which lists the instructions in
	// text order; start is where cur's window begins. Capped windows keep
	// the pieces independent: an append to one copies it.
	regs  []Reg
	body  []*Instr
	start int
}

// newInstr is Function.NewInstr with the instruction taken from a slab:
// the text's instruction count is not known ahead, so the function's
// room is made a slab at a time.
func (p *parser) newInstr(op Op, dst Reg, srcs []Reg) *Instr {
	if len(p.f.instrSlab) == cap(p.f.instrSlab) {
		p.f.instrSlab = make([]Instr, 0, slabSize)
	}
	return p.f.NewInstr(op, dst, srcs...)
}

// operands returns n register slots from a slab.
func (p *parser) operands(n int) []Reg {
	if cap(p.regs)-len(p.regs) < n {
		p.regs = make([]Reg, 0, max(slabSize, n))
	}
	i := len(p.regs)
	p.regs = p.regs[:i+n]
	return p.regs[i : i+n : i+n]
}

// srcs copies rs into an operand list from the slab.
func (p *parser) srcs(rs ...Reg) []Reg {
	s := p.operands(len(rs))
	copy(s, rs)
	return s
}

// emit appends in to the current block.
func (p *parser) emit(in *Instr) {
	in.blk = p.cur
	p.body = append(p.body, in)
}

// endBlock hands the current block its instructions.
func (p *parser) endBlock() {
	if n := len(p.body); n > p.start {
		p.cur.Instrs = p.body[p.start:n:n]
		p.start = n
	}
}

func (p *parser) line(line string) error {
	switch {
	case strings.HasPrefix(line, "func "):
		return p.header(line)
	case strings.HasSuffix(line, ":") && !strings.Contains(line, "="):
		return p.blockStart(strings.TrimSuffix(line, ":"))
	default:
		if p.cur == nil {
			return fmt.Errorf("instruction outside block")
		}
		return p.instr(line)
	}
}

func (p *parser) header(line string) error {
	if p.f != nil {
		return fmt.Errorf("duplicate function header")
	}
	open := strings.Index(line, "(")
	close := strings.LastIndex(line, ")")
	if open < 0 || close < open {
		return fmt.Errorf("malformed header")
	}
	name := strings.TrimSpace(line[len("func "):open])
	p.f = NewFunction(name)
	p.blocks = map[string]*Block{}
	params := strings.TrimSpace(line[open+1 : close])
	if params != "" {
		for _, ps := range strings.Split(params, ",") {
			r, err := p.reg(strings.TrimSpace(ps))
			if err != nil {
				return err
			}
			p.f.Params = append(p.f.Params, r)
		}
	}
	return nil
}

func (p *parser) blockStart(name string) error {
	if p.f == nil {
		return fmt.Errorf("block before function header")
	}
	if _, dup := p.blocks[name]; dup {
		return fmt.Errorf("duplicate block %q", name)
	}
	p.endBlock()
	b := p.f.NewBlock(name)
	p.blocks[name] = b
	p.cur = b
	return nil
}

// reg parses "rN".
func (p *parser) reg(s string) (Reg, error) {
	if !strings.HasPrefix(s, "r") {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n <= 0 {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	r := Reg(n)
	p.f.ReserveRegs(r)
	return r, nil
}

// queueRef parses "[qN]".
func (p *parser) queueRef(s string) (int, error) {
	if !strings.HasPrefix(s, "[q") || !strings.HasSuffix(s, "]") {
		return 0, fmt.Errorf("bad queue %q", s)
	}
	n, err := strconv.Atoi(s[2 : len(s)-1])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad queue %q", s)
	}
	if n+1 > p.maxQueue {
		p.maxQueue = n + 1
	}
	return n, nil
}

// memRef parses "[rN+OFF]".
func (p *parser) memRef(s string) (Reg, int64, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return NoReg, 0, fmt.Errorf("bad memory operand %q", s)
	}
	body := s[1 : len(s)-1]
	// The printer emits base+offset with a literal '+' even for negative
	// offsets ("[r1+-3]"), so split at the first '+'.
	split := strings.Index(body, "+")
	if split <= 0 {
		return NoReg, 0, fmt.Errorf("bad memory operand %q", s)
	}
	r, err := p.reg(body[:split])
	if err != nil {
		return NoReg, 0, err
	}
	off, err := strconv.ParseInt(body[split+1:], 10, 64)
	if err != nil {
		return NoReg, 0, fmt.Errorf("bad offset in %q", s)
	}
	return r, off, nil
}

var opByName = func() map[string]Op {
	m := map[string]Op{}
	for op := Nop; op < numOps; op++ {
		m[op.String()] = op
	}
	return m
}()

// field splits the first token off s, skipping leading space; rest is
// what follows the token, untrimmed. Outside assignments a comma is a
// token of its own, so "br r1,a, b" reads as br, r1, ",", a, ",", b.
func field(s string) (tok, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if strings.HasPrefix(s, ",") {
		return ",", s[1:]
	}
	if i := strings.IndexFunc(s, isFieldEnd); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

func isFieldEnd(r rune) bool { return r == ',' || unicode.IsSpace(r) }

// indexSpace is strings.IndexFunc(s, unicode.IsSpace) with a fast path
// for ASCII, which is all the printer writes.
func indexSpace(s string) int {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			if j := strings.IndexFunc(s[i:], unicode.IsSpace); j >= 0 {
				return i + j
			}
			return -1
		case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
			return i
		}
	}
	return -1
}

// regList parses a comma-separated register list; an empty list is nil.
func (p *parser) regList(list string) ([]Reg, error) {
	if list == "" {
		return nil, nil
	}
	srcs := p.operands(strings.Count(list, ",") + 1)
	for i := range srcs {
		var rs string
		rs, list, _ = strings.Cut(list, ",")
		r, err := p.reg(strings.TrimSpace(rs))
		if err != nil {
			return nil, err
		}
		srcs[i] = r
	}
	return srcs, nil
}

func (p *parser) instr(line string) error {
	// Assignment forms split on "=" first.
	if eq := strings.IndexByte(line, '='); eq >= 0 && !strings.HasPrefix(line, "store") &&
		!strings.HasPrefix(line, "produce") {
		lhs := strings.TrimSpace(line[:eq])
		rhs := strings.TrimSpace(line[eq+1:])
		dst, err := p.reg(lhs)
		if err != nil {
			return err
		}
		return p.assign(dst, rhs)
	}
	mnemonic, rest := field(line)
	switch mnemonic {
	case "store":
		// store [rM+OFF] = rN
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return fmt.Errorf("malformed store")
		}
		base, off, err := p.memRef(strings.TrimSpace(strings.TrimPrefix(line[:eq], "store")))
		if err != nil {
			return err
		}
		val, err := p.reg(strings.TrimSpace(line[eq+1:]))
		if err != nil {
			return err
		}
		in := p.newInstr(Store, NoReg, p.srcs(val, base))
		in.Imm = off
		p.emit(in)
	case "produce":
		// produce [qK] = rN
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return fmt.Errorf("malformed produce")
		}
		q, err := p.queueRef(strings.TrimSpace(strings.TrimPrefix(line[:eq], "produce")))
		if err != nil {
			return err
		}
		src, err := p.reg(strings.TrimSpace(line[eq+1:]))
		if err != nil {
			return err
		}
		in := p.newInstr(Produce, NoReg, p.srcs(src))
		in.Queue = q
		p.emit(in)
	case "produce.sync", "consume.sync":
		q, err := p.queueRef(strings.TrimSpace(strings.TrimPrefix(
			strings.TrimPrefix(line, "produce.sync"), "consume.sync")))
		if err != nil {
			return err
		}
		op := ProduceSync
		if mnemonic == "consume.sync" {
			op = ConsumeSync
		}
		in := p.newInstr(op, NoReg, nil)
		in.Queue = q
		p.emit(in)
	case "br":
		// br rN target1, target2
		c, rest := field(rest)
		if c == "" {
			return fmt.Errorf("malformed br")
		}
		cond, err := p.reg(c)
		if err != nil {
			return err
		}
		t0, t1, ok := strings.Cut(rest, ",")
		if !ok || strings.Contains(t1, ",") {
			return fmt.Errorf("br needs two targets")
		}
		p.emit(p.newInstr(Br, NoReg, p.srcs(cond)))
		p.pending = append(p.pending, pendingBranch{
			block:   p.cur,
			targets: [2]string{strings.TrimSpace(t0), strings.TrimSpace(t1)},
			n:       2,
		})
	case "jump":
		target, _ := field(rest)
		if target == "" {
			return fmt.Errorf("jump needs a target")
		}
		p.emit(p.newInstr(Jump, NoReg, nil))
		p.pending = append(p.pending, pendingBranch{block: p.cur, targets: [2]string{target}, n: 1})
	case "ret":
		srcs, err := p.regList(strings.TrimSpace(strings.TrimPrefix(line, "ret")))
		if err != nil {
			return err
		}
		p.emit(p.newInstr(Ret, NoReg, srcs))
	case "nop":
		p.emit(p.newInstr(Nop, NoReg, nil))
	default:
		return fmt.Errorf("unknown instruction %q", mnemonic)
	}
	return nil
}

// assign handles "rN = ..." forms. Here only whitespace separates tokens:
// the mnemonic runs to the first space, and a const, load or consume
// takes exactly one more token.
func (p *parser) assign(dst Reg, rhs string) error {
	if rhs == "" {
		return fmt.Errorf("empty right-hand side")
	}
	mnemonic, operands := rhs, ""
	if i := indexSpace(rhs); i >= 0 {
		mnemonic, operands = rhs[:i], strings.TrimLeftFunc(rhs[i:], unicode.IsSpace)
	}
	// operand is the single token a const, load or consume takes; "" when
	// there is none or more than one.
	operand := operands
	if indexSpace(operands) >= 0 {
		operand = ""
	}
	switch mnemonic {
	case "const":
		if operand == "" {
			return fmt.Errorf("malformed const")
		}
		imm, err := strconv.ParseInt(operand, 10, 64)
		if err != nil {
			return fmt.Errorf("bad immediate %q", operand)
		}
		in := p.newInstr(Const, dst, nil)
		in.Imm = imm
		p.emit(in)
	case "load":
		if operand == "" {
			return fmt.Errorf("malformed load")
		}
		base, off, err := p.memRef(operand)
		if err != nil {
			return err
		}
		in := p.newInstr(Load, dst, p.srcs(base))
		in.Imm = off
		p.emit(in)
	case "consume":
		if operand == "" {
			return fmt.Errorf("malformed consume")
		}
		q, err := p.queueRef(operand)
		if err != nil {
			return err
		}
		in := p.newInstr(Consume, dst, nil)
		in.Queue = q
		p.emit(in)
	default:
		op, ok := opByName[mnemonic]
		if !ok || !op.HasDst() {
			return fmt.Errorf("unknown operation %q", mnemonic)
		}
		srcs, err := p.regList(operands)
		if err != nil {
			return err
		}
		if want := op.NumSrcs(); want >= 0 && len(srcs) != want {
			return fmt.Errorf("%s takes %d operands, got %d", op, want, len(srcs))
		}
		p.emit(p.newInstr(op, dst, srcs))
	}
	return nil
}

// resolve wires branch targets once all blocks exist.
func (p *parser) resolve() error {
	for _, pb := range p.pending {
		var succs [2]*Block
		for i, name := range pb.targets[:pb.n] {
			b, ok := p.blocks[name]
			if !ok {
				return fmt.Errorf("ir: unknown branch target %q", name)
			}
			succs[i] = b
		}
		pb.block.SetSuccs(succs[:pb.n]...)
	}
	p.f.NumQueues = p.maxQueue
	return nil
}
