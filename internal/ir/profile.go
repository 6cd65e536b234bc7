package ir

import (
	"fmt"
	"slices"
)

// Profile is an edge profile, measured (interp.Run) or estimated
// (analysis.EstimateProfile), that weighs the partitioners' and COCO's
// costs. Exits[b][s] counts block b's exits to Succs[s], by block ID; a
// branch whose two arms reach one block counts in slot 0. The interpreter
// counts into this tally and a baseline record stores it as it is.
type Profile struct {
	Exits [][2]int64
}

// NewProfile returns an empty profile sized to f's blocks.
func NewProfile(f *Function) *Profile { return &Profile{Exits: make([][2]int64, len(f.Blocks))} }

// EdgeWeight returns the execution count of the edge from to; 0 when
// there is no such edge or from lies past the profiled blocks.
func (p *Profile) EdgeWeight(from, to *Block) int64 {
	var w int64
	for s, succ := range from.Succs {
		if succ.ID == to.ID && from.ID < len(p.Exits) {
			w += p.Exits[from.ID][s]
		}
	}
	return w
}

// AddEdge adds n executions to the edge from to, in from's first slot that
// reaches to. It panics when to is not a successor of from.
func (p *Profile) AddEdge(from, to *Block, n int64) {
	for s, succ := range from.Succs {
		if succ.ID == to.ID {
			p.Exits[from.ID][s] += n
			return
		}
	}
	panic(fmt.Sprintf("ir: profile edge %s -> %s is not a CFG edge", from.Name, to.Name))
}

// BlockWeight returns the execution count estimate of block b: the sum of
// incoming edge counts, or of outgoing counts for the entry block. It is
// the partitioners' and COCO's weight; Frequencies is the exact count.
// Preds and Succs list a same-target branch once per arm and EdgeWeight
// returns the whole edge, so each distinct neighbour is counted once.
func (p *Profile) BlockWeight(b *Block) int64 {
	var w int64
	if len(b.Preds) == 0 {
		for i, s := range b.Succs {
			if !slices.Contains(b.Succs[:i], s) {
				w += p.EdgeWeight(b, s)
			}
		}
		if w == 0 {
			w = 1 // entry executes once
		}
		return w
	}
	for i, pr := range b.Preds {
		if !slices.Contains(b.Preds[:i], pr) {
			w += p.EdgeWeight(pr, b)
		}
	}
	return w
}

// Frequencies returns how often each block of f (by block ID) executed in
// the run that recorded p: the exact sum of its incoming exits, plus one
// for the entry. It differs from BlockWeight on an entry with a back edge.
func (p *Profile) Frequencies(f *Function) []int64 {
	freq := make([]int64, len(f.Blocks))
	freq[f.Entry().ID] = 1
	for id, exits := range p.Exits {
		for s, succ := range f.Blocks[id].Succs {
			freq[succ.ID] += exits[s]
		}
	}
	return freq
}

// Verify reports why p cannot be what a run of f counted in steps
// instructions: a tally not sized to f, a negative count, an exit to a
// successor its block lacks, a count in the second slot of a same-target
// branch, or more exits than steps (each exit is one executed terminator).
func (p *Profile) Verify(f *Function, steps int64) error {
	if len(p.Exits) != len(f.Blocks) {
		return fmt.Errorf("ir: profile has %d blocks, %s has %d", len(p.Exits), f.Name, len(f.Blocks))
	}
	left := steps
	for id, exits := range p.Exits {
		b := f.Blocks[id]
		for s, c := range exits {
			if c == 0 {
				continue
			}
			if c < 0 || c > left || s >= len(b.Succs) || (s == 1 && b.Succs[1] == b.Succs[0]) {
				return fmt.Errorf("ir: profile block %s: %d exits in slot %d, %d steps left", b.Name, c, s, left)
			}
			left -= c
		}
	}
	return nil
}
