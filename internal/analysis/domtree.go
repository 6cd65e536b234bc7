// Package analysis provides the control-flow analyses the GMT scheduling
// framework is built on: dominator and post-dominator trees, the
// control-dependence graph of Ferrante, Ottenstein and Warren, and the
// natural-loop forest.
package analysis

import (
	"fmt"

	"repro/internal/ir"
)

// DomTree is a dominator tree (forward or reverse). Use Dominators for the
// forward tree rooted at the entry block and PostDominators for the reverse
// tree rooted at the Ret block.
type DomTree struct {
	fn      *ir.Function
	post    bool
	root    int
	idom    []int   // block ID -> immediate dominator's ID; root maps to itself; -1 unreachable
	childs  [][]int // tree children
	preNum  []int   // tree DFS interval for O(1) dominance tests
	postNum []int
}

// Dominators computes the dominator tree of f rooted at the entry block,
// using the Cooper–Harvey–Kennedy iterative algorithm.
func Dominators(f *ir.Function) *DomTree {
	return buildDomTree(f, false, f.Entry().ID)
}

// PostDominators computes the post-dominator tree of f rooted at the block
// containing the Ret instruction. All blocks of a verified function reach
// Ret, so the tree covers the whole CFG. A function without a unique Ret
// block (one that ir.Verify would reject) yields an error.
func PostDominators(f *ir.Function) (*DomTree, error) {
	ret := f.RetInstr()
	if ret == nil {
		return nil, fmt.Errorf("analysis: %s has no unique Ret block", f.Name)
	}
	return buildDomTree(f, true, ret.Block().ID), nil
}

func buildDomTree(f *ir.Function, post bool, root int) *DomTree {
	n := len(f.Blocks)
	t := &DomTree{fn: f, post: post, root: root, idom: make([]int, n)}
	for i := range t.idom {
		t.idom[i] = -1
	}

	// Reverse postorder over the traversal direction.
	rpo := t.reversePostorder()
	order := make([]int, n) // block ID -> RPO index; -1 unreachable
	for i := range order {
		order[i] = -1
	}
	for i, id := range rpo {
		order[id] = i
	}

	t.idom[t.root] = t.root
	for changed := true; changed; {
		changed = false
		for _, id := range rpo {
			if id == t.root {
				continue
			}
			newIdom := -1
			for _, pb := range t.walkPreds(id) {
				p := pb.ID
				if t.idom[p] == -1 {
					continue // predecessor not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = t.intersect(newIdom, p, order)
				}
			}
			if newIdom != -1 && t.idom[id] != newIdom {
				t.idom[id] = newIdom
				changed = true
			}
		}
	}

	t.childs = make([][]int, n)
	for id := 0; id < n; id++ {
		if id != t.root && t.idom[id] >= 0 {
			t.childs[t.idom[id]] = append(t.childs[t.idom[id]], id)
		}
	}
	t.number()
	return t
}

// walkSuccs returns the successors in the traversal direction.
func (t *DomTree) walkSuccs(id int) []*ir.Block {
	if t.post {
		return t.fn.Blocks[id].Preds
	}
	return t.fn.Blocks[id].Succs
}

// walkPreds returns the predecessors in the traversal direction.
func (t *DomTree) walkPreds(id int) []*ir.Block {
	if t.post {
		return t.fn.Blocks[id].Succs
	}
	return t.fn.Blocks[id].Preds
}

func (t *DomTree) reversePostorder() []int {
	n := len(t.fn.Blocks)
	seen := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(id int) {
		seen[id] = true
		for _, s := range t.walkSuccs(id) {
			if !seen[s.ID] {
				dfs(s.ID)
			}
		}
		post = append(post, id)
	}
	dfs(t.root)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

func (t *DomTree) intersect(a, b int, order []int) int {
	for a != b {
		for order[a] > order[b] {
			a = t.idom[a]
		}
		for order[b] > order[a] {
			b = t.idom[b]
		}
	}
	return a
}

// number assigns DFS entry/exit numbers over the dominator tree so that
// dominance is an interval-containment test.
func (t *DomTree) number() {
	n := len(t.fn.Blocks)
	t.preNum = make([]int, n)
	t.postNum = make([]int, n)
	clock := 0
	var dfs func(int)
	dfs = func(id int) {
		clock++
		t.preNum[id] = clock
		for _, c := range t.childs[id] {
			dfs(c)
		}
		clock++
		t.postNum[id] = clock
	}
	dfs(t.root)
}

// Root returns the tree's root block.
func (t *DomTree) Root() *ir.Block { return t.fn.Blocks[t.root] }

// IDom returns b's immediate (post-)dominator, or nil for the root.
func (t *DomTree) IDom(b *ir.Block) *ir.Block {
	if b.ID == t.root || t.idom[b.ID] < 0 {
		return nil
	}
	return t.fn.Blocks[t.idom[b.ID]]
}

// Dominates reports whether a (post-)dominates b. Every block dominates
// itself.
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	return t.preNum[a.ID] <= t.preNum[b.ID] && t.postNum[b.ID] <= t.postNum[a.ID]
}

// StrictlyDominates reports whether a (post-)dominates b and a != b.
func (t *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && t.Dominates(a, b)
}

// WalkUp calls fn on b and then each of its ancestors in tree order, stopping
// early if fn returns false. A block the tree does not cover — one that
// cannot reach a post-dominator tree's root, say — has no ancestors: fn
// sees only b.
func (t *DomTree) WalkUp(b *ir.Block, fn func(*ir.Block) bool) {
	for id := b.ID; id >= 0; id = t.idom[id] {
		if !fn(t.fn.Blocks[id]) || id == t.root {
			return
		}
	}
}
