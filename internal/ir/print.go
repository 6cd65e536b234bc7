package ir

import (
	"math"
	"slices"
	"strconv"
)

// Float64Bits converts a float64 to its IEEE-754 bit pattern. It exists so
// clients of the IR need not import math for register encoding.
func Float64Bits(v float64) uint64 { return math.Float64bits(v) }

// Float64FromBits is the inverse of Float64Bits.
func Float64FromBits(b uint64) float64 { return math.Float64frombits(b) }

// String renders the function as assembler-like text, one block per
// paragraph. Duplicate block names are disambiguated with the block ID so
// the output always parses back (see Parse).
//
// The text is the IR part of every workload fingerprint, so its bytes are
// a storage format: TestPrinterMatchesFmtReference holds them to the
// printer as it was written over fmt.
func (f *Function) String() string {
	// About 20 bytes an instruction and 30 a block header on the kernels
	// and random programs; a buffer that runs short grows once.
	return string(f.appendTo(make([]byte, 0, 64+24*f.NumInstrs()+32*len(f.Blocks))))
}

// appendTo appends the function's text to b.
func (f *Function) appendTo(b []byte) []byte {
	labels := make([]string, len(f.Blocks))
	seen := make(map[string]bool, len(f.Blocks))
	dense := true
	for i, blk := range f.Blocks {
		name := blk.Name
		if seen[name] {
			name = blk.Name + ".b" + strconv.Itoa(blk.ID)
		}
		seen[name] = true
		labels[i] = name
		dense = dense && blk.ID == i
	}
	// label names the block with ID id. Blocks[i].ID == i in any function
	// the package builds; otherwise the last block carrying id wins and an
	// ID no block carries has no name.
	label := func(id int) string {
		if dense {
			if id >= 0 && id < len(labels) {
				return labels[id]
			}
			return ""
		}
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			if f.Blocks[i].ID == id {
				return labels[i]
			}
		}
		return ""
	}

	b = append(append(b, "func "...), f.Name...)
	b = append(b, '(')
	for i, p := range f.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = p.appendTo(b)
	}
	b = append(b, ")\n"...)
	var preds []string
	for _, blk := range f.Blocks {
		b = append(append(b, label(blk.ID)...), ':')
		if len(blk.Preds) > 0 {
			b = append(b, "  ; preds:"...)
			preds = preds[:0]
			for _, p := range blk.Preds {
				preds = append(preds, label(p.ID))
			}
			slices.Sort(preds)
			for _, n := range preds {
				b = append(append(b, ' '), n...)
			}
		}
		b = append(b, '\n')
		for _, in := range blk.Instrs {
			b = append(b, '\t')
			switch {
			case in.Op == Br && len(blk.Succs) == 2:
				b = in.Srcs[0].appendTo(append(b, "br "...))
				b = append(append(b, ' '), label(blk.Succs[0].ID)...)
				b = append(append(b, ", "...), label(blk.Succs[1].ID)...)
			case in.Op == Jump && len(blk.Succs) == 1:
				b = append(append(b, "jump "...), label(blk.Succs[0].ID)...)
			default:
				b = in.appendTo(b)
			}
			b = append(b, '\n')
		}
	}
	return b
}
