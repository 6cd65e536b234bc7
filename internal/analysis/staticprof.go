package analysis

import "repro/internal/ir"

// EstimateProfile computes a static execution-frequency estimate for every
// CFG edge, in the spirit of Wu and Larus [28] — the paper notes COCO's
// costs "can be obtained through profiling or through static analyses,
// which have been demonstrated to be also very accurate". The estimator
// uses simple structural heuristics:
//
//   - each loop iterates loopIterations times per entry (back-edge
//     probability solved per loop, innermost first);
//   - non-loop branches split 50/50, except that an edge leaving a loop is
//     given the loop-exit probability.
//
// Frequencies are scaled by freqScale and floored at 1 so they can be used
// anywhere a measured ir.Profile is.
func EstimateProfile(f *ir.Function) *ir.Profile {
	const loopIterations = 10
	const freqScale = 1000

	dom := Dominators(f)
	lf := FindLoops(f, dom)

	// Edge probability out of each block.
	prob := func(b *ir.Block, idx int) float64 {
		if len(b.Succs) == 1 {
			return 1
		}
		s := b.Succs[idx]
		// Back edges get the iteration-sustaining probability.
		if dom.Dominates(s, b) {
			return 1 - 1.0/loopIterations
		}
		// The sibling of a back edge gets the exit probability.
		other := b.Succs[1-idx]
		if dom.Dominates(other, b) {
			return 1.0 / loopIterations
		}
		// If this edge leaves the innermost loop but the sibling stays,
		// treat it as a loop exit.
		if l := lf.InnermostLoop(b); l != nil {
			if !l.Contains(s) && l.Contains(other) {
				return 1.0 / loopIterations
			}
			if l.Contains(s) && !l.Contains(other) {
				return 1 - 1.0/loopIterations
			}
		}
		return 0.5
	}

	// Loop multipliers, innermost first: header executes
	// 1/(1 - cyclicProbability) times per entry.
	multiplier := map[*Loop]float64{}
	var loopsInnerFirst []*Loop
	var collect func(ls []*Loop)
	collect = func(ls []*Loop) {
		for _, l := range ls {
			collect(l.Childs)
			loopsInnerFirst = append(loopsInnerFirst, l)
		}
	}
	collect(lf.TopLevel())

	for _, l := range loopsInnerFirst {
		// Propagate one unit of flow from the header through the loop
		// body (acyclically: back edges to this header are counted as
		// cyclic probability; inner loops already have multipliers).
		cp := propagateCyclic(f, l, lf, dom, multiplier, prob)
		if cp > 0.99 {
			cp = 0.99
		}
		multiplier[l] = 1 / (1 - cp)
	}

	// Final forward propagation from the entry.
	freq := make([]float64, len(f.Blocks))
	freq[f.Entry().ID] = 1
	prof := ir.NewProfile(f)
	for _, b := range ReversePostorder(f) {
		fb := freq[b.ID]
		if l := lf.InnermostLoop(b); l != nil && l.Header == b {
			fb *= multiplier[l]
			freq[b.ID] = fb
		}
		for i, s := range b.Succs {
			if dom.Dominates(s, b) {
				continue // back edge: flow already accounted in multiplier
			}
			w := fb * prob(b, i)
			freq[s.ID] += w
			count := int64(w * freqScale)
			if count < 1 {
				count = 1
			}
			prof.AddEdge(b, s, count)
		}
	}
	// Back edges still need weights for completeness: header freq minus
	// entry flow, distributed over the latches.
	for _, l := range loopsInnerFirst {
		h := l.Header
		var latches []*ir.Block
		for _, p := range h.Preds {
			if l.Contains(p) && dom.Dominates(h, p) {
				latches = append(latches, p)
			}
		}
		if len(latches) == 0 {
			continue
		}
		back := freq[h.ID] * (1 - 1.0/multiplier[l])
		for _, p := range latches {
			count := int64(back / float64(len(latches)) * freqScale)
			if count < 1 {
				count = 1
			}
			prof.AddEdge(p, h, count)
		}
	}
	return prof
}

// propagateCyclic pushes one unit of flow from l's header through l's body
// and returns the fraction arriving at back edges into the header.
func propagateCyclic(f *ir.Function, l *Loop, lf *LoopForest, dom *DomTree,
	multiplier map[*Loop]float64, prob func(*ir.Block, int) float64) float64 {

	flow := make([]float64, len(f.Blocks))
	flow[l.Header.ID] = 1
	cyclic := 0.0
	for _, b := range ReversePostorder(f) {
		if !l.Contains(b) || flow[b.ID] == 0 {
			continue
		}
		fb := flow[b.ID]
		// An inner loop amplifies flow through its header.
		if inner := lf.InnermostLoop(b); inner != nil && inner != l &&
			inner.Header == b && isAncestorLoop(l, inner) {
			fb *= multiplier[inner]
		}
		for i, s := range b.Succs {
			w := fb * prob(b, i)
			if s == l.Header {
				if dom.Dominates(s, b) {
					cyclic += w
				}
				continue
			}
			if l.Contains(s) && !dom.Dominates(s, b) {
				flow[s.ID] += w
			}
		}
	}
	if cyclic > 1 {
		cyclic = 1
	}
	return cyclic
}

// isAncestorLoop reports whether anc encloses l (or is l).
func isAncestorLoop(anc, l *Loop) bool {
	for x := l; x != nil; x = x.Parent {
		if x == anc {
			return true
		}
	}
	return false
}
