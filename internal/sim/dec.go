package sim

import "repro/internal/ir"

// decIns is the issue loop's flattened view of one instruction. The IR's
// *ir.Instr spreads the fields the simulator touches every cycle (opcode,
// sources, destination, immediate) across a pointer-rich heap object plus
// a separately allocated Srcs slice — two to three cache lines per
// instruction visit. Decoding once at system setup packs them into a
// contiguous 32-byte record with the first two sources and the port class
// inline, two records per cache line. The originating *ir.Instr (needed
// only on rare paths: faults, the ir.Instr.Eval fallback, Ret live-out lists)
// lives in the parallel decBlock.irs slice.
type decIns struct {
	imm   int64
	dst   int32
	s0    int32
	s1    int32
	id    int32
	queue int32
	op    ir.Op
	cls   uint8
	nsrc  uint8
}

// decBlock mirrors one ir.Block: decoded instructions, the originating
// instructions (same indexing), and decoded successors (succs[0]=taken,
// succs[1]=fallthrough, as in ir.Block.Succs).
type decBlock struct {
	ins   []decIns
	irs   []*ir.Instr
	succs [2]*decBlock
}

// decodeFunction builds the decoded CFG for one thread function and
// returns its entry block.
func decodeFunction(f *ir.Function) *decBlock {
	m := map[*ir.Block]*decBlock{}
	var walk func(b *ir.Block) *decBlock
	walk = func(b *ir.Block) *decBlock {
		if d, ok := m[b]; ok {
			return d
		}
		d := &decBlock{ins: make([]decIns, len(b.Instrs)), irs: b.Instrs}
		m[b] = d
		for i, in := range b.Instrs {
			di := &d.ins[i]
			di.imm = in.Imm
			di.dst = int32(in.Dst)
			if len(in.Srcs) > 0 {
				di.s0 = int32(in.Srcs[0])
			}
			if len(in.Srcs) > 1 {
				di.s1 = int32(in.Srcs[1])
			}
			di.id = int32(in.ID)
			di.queue = int32(in.Queue)
			di.op = in.Op
			di.cls = uint8(portTab[in.Op]) & 3
			// nsrc only distinguishes 0/1/2/"more" (a Ret's live-out list
			// is walked through the originating instruction), so clamp it.
			if n := len(in.Srcs); n > 3 {
				di.nsrc = 3
			} else {
				di.nsrc = uint8(n)
			}
		}
		for i, sb := range b.Succs {
			if i < len(d.succs) {
				d.succs[i] = walk(sb)
			}
		}
		return d
	}
	return walk(f.Entry())
}
