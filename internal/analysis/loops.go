package analysis

import "repro/internal/ir"

// Loop is a natural loop: the header plus all blocks that can reach a back
// edge into the header without leaving the loop.
type Loop struct {
	Header *ir.Block
	Blocks map[int]bool // block IDs in the loop (including the header)
	Parent *Loop        // innermost enclosing loop, nil for top-level loops
	Childs []*Loop
	Depth  int // nesting depth; top-level loops have depth 1
}

// Contains reports whether the loop contains block b.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b.ID] }

// LoopForest is the natural-loop nesting forest of a function.
type LoopForest struct {
	fn    *ir.Function
	Loops []*Loop // all loops, outermost-first within each nest
	of    []*Loop // block ID -> innermost containing loop (nil if none)
}

// FindLoops discovers natural loops from back edges (edges whose target
// dominates their source) and builds the nesting forest. Pass a dominator
// tree or nil to compute one. Irreducible control flow yields no loop for
// the offending cycle; the kernels in this repository are all reducible.
func FindLoops(f *ir.Function, dom *DomTree) *LoopForest {
	if dom == nil {
		dom = Dominators(f)
	}
	lf := &LoopForest{fn: f, of: make([]*Loop, len(f.Blocks))}
	byHeader := map[int]*Loop{}

	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue // not a back edge
			}
			l := byHeader[s.ID]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[int]bool{s.ID: true}}
				byHeader[s.ID] = l
				lf.Loops = append(lf.Loops, l)
			}
			// Walk backwards from the latch collecting the body.
			var stack []*ir.Block
			if !l.Blocks[b.ID] {
				l.Blocks[b.ID] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if !l.Blocks[p.ID] {
						l.Blocks[p.ID] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}

	// Nest loops: parent is the smallest strictly-containing loop.
	for _, l := range lf.Loops {
		for _, m := range lf.Loops {
			if m == l || !m.Blocks[l.Header.ID] || len(m.Blocks) <= len(l.Blocks) {
				continue
			}
			if l.Parent == nil || len(m.Blocks) < len(l.Parent.Blocks) {
				l.Parent = m
			}
		}
	}
	for _, l := range lf.Loops {
		if l.Parent != nil {
			l.Parent.Childs = append(l.Parent.Childs, l)
		}
	}
	for _, l := range lf.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	// Innermost loop per block: the containing loop with the greatest depth.
	for _, l := range lf.Loops {
		for id := range l.Blocks {
			if lf.of[id] == nil || lf.of[id].Depth < l.Depth {
				lf.of[id] = l
			}
		}
	}
	return lf
}

// InnermostLoop returns the innermost loop containing b, or nil.
func (lf *LoopForest) InnermostLoop(b *ir.Block) *Loop { return lf.of[b.ID] }

// TopLevel returns the loops that are not nested in any other loop.
func (lf *LoopForest) TopLevel() []*Loop {
	var out []*Loop
	for _, l := range lf.Loops {
		if l.Parent == nil {
			out = append(out, l)
		}
	}
	return out
}

// ReversePostorder returns the function's blocks in reverse postorder from
// the entry block.
func ReversePostorder(f *ir.Function) []*ir.Block {
	seen := make([]bool, len(f.Blocks))
	var post []*ir.Block
	var dfs func(*ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// ReachabilityBytes returns what Reachability(f) allocates for its
// relation, without allocating it: a boolean for every pair of blocks.
func ReachabilityBytes(f *ir.Function) int64 {
	n := int64(len(f.Blocks))
	return n * n
}

// Reachability computes the block-level transitive reachability relation:
// result[a][b] reports whether b is reachable from a by a non-empty path.
// It is used to orient memory-dependence arcs in the PDG.
func Reachability(f *ir.Function) [][]bool {
	n := len(f.Blocks)
	r := make([][]bool, n)
	rows := make([]bool, n*n)
	for i := range r {
		r[i] = rows[i*n : (i+1)*n : (i+1)*n]
	}
	// DFS from each block (n is small for the regions we schedule).
	var stack []*ir.Block
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !r[b.ID][s.ID] {
				r[b.ID][s.ID] = true
				stack = append(stack, s)
			}
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range x.Succs {
				if !r[b.ID][s.ID] {
					r[b.ID][s.ID] = true
					stack = append(stack, s)
				}
			}
		}
	}
	return r
}
