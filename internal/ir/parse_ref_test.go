package ir

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// refParse is Parse as it was while every line went through
// strings.Fields, kept as the reference: FuzzParse holds the parser to
// the same accepted inputs, error text and functions.
func refParse(text string) (*Function, error) {
	p := &refParser{}
	lines := strings.Split(text, "\n")
	for num, raw := range lines {
		line := raw
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("ir: line %d: %q: %w", num+1, raw, err)
		}
	}
	if p.f == nil {
		return nil, fmt.Errorf("ir: no function header")
	}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	return p.f, nil
}

type refPendingBranch struct {
	block   *Block
	targets []string
}

type refParser struct {
	f        *Function
	cur      *Block
	blocks   map[string]*Block
	pending  []refPendingBranch
	maxQueue int
}

func (p *refParser) line(line string) error {
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

func (p *refParser) header(line string) error {
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

func (p *refParser) blockStart(name string) error {
	if p.f == nil {
		return fmt.Errorf("block before function header")
	}
	if _, dup := p.blocks[name]; dup {
		return fmt.Errorf("duplicate block %q", name)
	}
	b := p.f.NewBlock(name)
	p.blocks[name] = b
	p.cur = b
	return nil
}

func (p *refParser) reg(s string) (Reg, error) {
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

func (p *refParser) queueRef(s string) (int, error) {
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

func (p *refParser) memRef(s string) (Reg, int64, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return NoReg, 0, fmt.Errorf("bad memory operand %q", s)
	}
	body := s[1 : len(s)-1]
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

func (p *refParser) emit(in *Instr) { p.cur.Append(in) }

func (p *refParser) instr(line string) error {
	fields := strings.Fields(strings.ReplaceAll(line, ",", " , "))
	if eq := strings.Index(line, "="); eq >= 0 && !strings.HasPrefix(line, "store") &&
		!strings.HasPrefix(line, "produce") {
		lhs := strings.TrimSpace(line[:eq])
		rhs := strings.TrimSpace(line[eq+1:])
		dst, err := p.reg(lhs)
		if err != nil {
			return err
		}
		return p.assign(dst, rhs)
	}
	switch fields[0] {
	case "store":
		eq := strings.Index(line, "=")
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
		in := p.f.NewInstr(Store, NoReg, val, base)
		in.Imm = off
		p.emit(in)
	case "produce":
		eq := strings.Index(line, "=")
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
		in := p.f.NewInstr(Produce, NoReg, src)
		in.Queue = q
		p.emit(in)
	case "produce.sync", "consume.sync":
		q, err := p.queueRef(strings.TrimSpace(strings.TrimPrefix(
			strings.TrimPrefix(line, "produce.sync"), "consume.sync")))
		if err != nil {
			return err
		}
		op := ProduceSync
		if fields[0] == "consume.sync" {
			op = ConsumeSync
		}
		in := p.f.NewInstr(op, NoReg)
		in.Queue = q
		p.emit(in)
	case "br":
		if len(fields) < 2 {
			return fmt.Errorf("malformed br")
		}
		cond, err := p.reg(fields[1])
		if err != nil {
			return err
		}
		rest := strings.TrimSpace(line[strings.Index(line, fields[1])+len(fields[1]):])
		parts := strings.Split(rest, ",")
		if len(parts) != 2 {
			return fmt.Errorf("br needs two targets")
		}
		p.emit(p.f.NewInstr(Br, NoReg, cond))
		p.pending = append(p.pending, refPendingBranch{
			block:   p.cur,
			targets: []string{strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])},
		})
	case "jump":
		if len(fields) < 2 {
			return fmt.Errorf("jump needs a target")
		}
		p.emit(p.f.NewInstr(Jump, NoReg))
		p.pending = append(p.pending, refPendingBranch{block: p.cur, targets: []string{fields[1]}})
	case "ret":
		var srcs []Reg
		rest := strings.TrimSpace(strings.TrimPrefix(line, "ret"))
		if rest != "" {
			for _, rs := range strings.Split(rest, ",") {
				r, err := p.reg(strings.TrimSpace(rs))
				if err != nil {
					return err
				}
				srcs = append(srcs, r)
			}
		}
		p.emit(p.f.NewInstr(Ret, NoReg, srcs...))
	case "nop":
		p.emit(p.f.NewInstr(Nop, NoReg))
	default:
		return fmt.Errorf("unknown instruction %q", fields[0])
	}
	return nil
}

func (p *refParser) assign(dst Reg, rhs string) error {
	fields := strings.Fields(rhs)
	if len(fields) == 0 {
		return fmt.Errorf("empty right-hand side")
	}
	switch fields[0] {
	case "const":
		if len(fields) != 2 {
			return fmt.Errorf("malformed const")
		}
		imm, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad immediate %q", fields[1])
		}
		in := p.f.NewInstr(Const, dst)
		in.Imm = imm
		p.emit(in)
	case "load":
		if len(fields) != 2 {
			return fmt.Errorf("malformed load")
		}
		base, off, err := p.memRef(fields[1])
		if err != nil {
			return err
		}
		in := p.f.NewInstr(Load, dst, base)
		in.Imm = off
		p.emit(in)
	case "consume":
		if len(fields) != 2 {
			return fmt.Errorf("malformed consume")
		}
		q, err := p.queueRef(fields[1])
		if err != nil {
			return err
		}
		in := p.f.NewInstr(Consume, dst)
		in.Queue = q
		p.emit(in)
	default:
		op, ok := opByName[fields[0]]
		if !ok || !op.HasDst() {
			return fmt.Errorf("unknown operation %q", fields[0])
		}
		operands := strings.TrimSpace(rhs[len(fields[0]):])
		var srcs []Reg
		if operands != "" {
			for _, rs := range strings.Split(operands, ",") {
				r, err := p.reg(strings.TrimSpace(rs))
				if err != nil {
					return err
				}
				srcs = append(srcs, r)
			}
		}
		if want := op.NumSrcs(); want >= 0 && len(srcs) != want {
			return fmt.Errorf("%s takes %d operands, got %d", op, want, len(srcs))
		}
		p.emit(p.f.NewInstr(op, dst, srcs...))
	}
	return nil
}

func (p *refParser) resolve() error {
	for _, pb := range p.pending {
		var succs []*Block
		for _, name := range pb.targets {
			b, ok := p.blocks[name]
			if !ok {
				return fmt.Errorf("ir: unknown branch target %q", name)
			}
			succs = append(succs, b)
		}
		pb.block.SetSuccs(succs...)
	}
	p.f.NumQueues = p.maxQueue
	return nil
}

// tokenSeeds are lines on the edges of the grammar's tokenization: commas
// that are tokens of their own, non-ASCII space, mnemonics that prefix
// others, and trailing tokens some forms ignore.
var tokenSeeds = []string{
	"br r1,then, else", "br ,r1 then, else", "br r1 then else", "br r1 then, else, more",
	"br\u00a0r1\u2003then,\u00a0else", "br r1", "br", "br r+1 then, else", "br r01 then,",
	"jump ,then", "jump then else", "jump then,else", "jump", "jump\u0085then",
	"ret,r1", "ret r1,", "ret r1 , r2,r3", "ret", "ret r1 r2", "return r1",
	"r1 = const 5,6", "r1 = const", "r1 = const 1 2", "r1 =", "r1 = const\u00a0-7",
	"r1 = add r1,r2", "r1 = add,r1, r2", "r1 = add r1, r2, r1", "r1 = add r1 r2", "r1 = add",
	"r1 = load [r2+-3]", "r1 = load [r2+3] x", "r1 = load r2", "r1 = consume [q9]", "r1 = consume q9",
	"r1 = store r2", "r1 = nop", "r1 = produce.sync", "r1=mov r2", " r2 = mov r1 ; comment",
	"store [r1+2] = r2", "store [r1+2]", "storex [r1+2] = r2", "store[r1+2]=r2",
	"produce [q1] = r2", "produce [q1]", "producer = const 1", "produce.sync [q3] = r1",
	"produce.sync [q3]", "consume.sync [q0]", "consume.sync,[q0]", "produce.sync",
	"nop", "nop r1 r2", ",", ", r1", "=", "x:", "then: = ", "r1 = const 9223372036854775808",
}

// FuzzParse runs Parse and the reference on the same text and wants the
// same verdict: both accept it and build functions that print the same
// (with the same register and queue counts), or both refuse it with the
// same error text. Neither may panic.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob("../oracle/testdata/corpus/*.ir")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed corpus (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, tc := range parseErrorCases {
		f.Add(tc.text)
	}
	f.Add(sampleText)
	for _, line := range tokenSeeds {
		f.Add("func f(r1, r2)\nentry:\n\t" + line + "\n\tjump then\nthen:\n\tret r1\nelse:\n\tret\n")
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, gerr := Parse(text)
		want, werr := refParse(text)
		switch {
		case (gerr == nil) != (werr == nil):
			t.Fatalf("verdicts differ on %q:\n got  %v\n want %v", text, gerr, werr)
		case gerr != nil:
			if gerr.Error() != werr.Error() {
				t.Fatalf("error text differs on %q:\n got  %s\n want %s", text, gerr, werr)
			}
		default:
			if g, w := got.String(), want.String(); g != w {
				t.Fatalf("functions differ on %q:\n got\n%s\n want\n%s", text, g, w)
			}
			if got.MaxReg() != want.MaxReg() || got.NumQueues != want.NumQueues || got.NumInstrIDs() != want.NumInstrIDs() {
				t.Fatalf("on %q: max reg %d, %d queues, %d instruction IDs; want %d, %d, %d", text,
					got.MaxReg(), got.NumQueues, got.NumInstrIDs(), want.MaxReg(), want.NumQueues, want.NumInstrIDs())
			}
		}
	})
}
