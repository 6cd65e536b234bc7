package analysis

import "repro/internal/ir"

// CtrlDep records that the branch terminating Branch controls the execution
// of some block: the block executes iff the branch takes the given successor
// edge (directly or transitively through blocks with only one exit).
type CtrlDep struct {
	Branch *ir.Block // block whose terminator is the controlling branch
	Edge   int       // successor index of the controlling edge (0 taken, 1 fall-through)
}

// CDG is the control-dependence graph of a function at basic-block
// granularity, computed from the post-dominator tree with the classic
// Ferrante–Ottenstein–Warren construction. A block's instructions all share
// the block's control dependences.
type CDG struct {
	deps [][]CtrlDep // block ID -> direct control dependences
}

// ControlDeps computes the CDG of f using the given post-dominator tree
// (pass nil to compute one). Computing the tree fails on a function with no
// unique Ret block; see PostDominators.
func ControlDeps(f *ir.Function, pdom *DomTree) (*CDG, error) {
	if pdom == nil {
		var err error
		pdom, err = PostDominators(f)
		if err != nil {
			return nil, err
		}
	}
	g := &CDG{deps: make([][]CtrlDep, len(f.Blocks))}
	for _, u := range f.Blocks {
		if len(u.Succs) < 2 {
			continue
		}
		for ei, v := range u.Succs {
			if pdom.StrictlyDominates(v, u) {
				continue // v strictly post-dominates u: edge not control dependent
			}
			// Every block from v up the post-dominator tree to (but
			// excluding) ipdom(u) is control dependent on (u, ei).
			stop := pdom.IDom(u)
			for w := v; w != nil && w != stop; w = pdom.IDom(w) {
				g.deps[w.ID] = append(g.deps[w.ID], CtrlDep{Branch: u, Edge: ei})
			}
		}
	}
	return g, nil
}

// MustControlDeps is ControlDeps for callers holding a verified function,
// where a missing Ret is a programming error.
func MustControlDeps(f *ir.Function, pdom *DomTree) *CDG {
	g, err := ControlDeps(f, pdom)
	if err != nil {
		panic(err)
	}
	return g
}

// Deps returns the direct control dependences of block b. The entry block
// and blocks that execute unconditionally have none.
func (g *CDG) Deps(b *ir.Block) []CtrlDep { return g.deps[b.ID] }

// Closures returns the transitive control-dependence closure of every block
// at once, as ID lists indexed by block ID: all blocks whose branches
// directly or indirectly control the block. A list does not include its own
// block unless that block controls itself (a loop exit branch).
func (g *CDG) Closures() [][]int {
	out := make([][]int, len(g.deps))
	inClosure := make([]int, len(g.deps)) // inClosure[id] == b+1: id is in out[b]
	var stack []int
	for b := range g.deps {
		stack = append(stack[:0], b)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, d := range g.deps[x] {
				if id := d.Branch.ID; inClosure[id] != b+1 {
					inClosure[id] = b + 1
					out[b] = append(out[b], id)
					stack = append(stack, id)
				}
			}
		}
	}
	return out
}
