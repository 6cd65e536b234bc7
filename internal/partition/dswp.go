package partition

import (
	"repro/internal/ir"
	"repro/internal/pdg"
)

// DSWP implements Decoupled Software Pipelining [16]: the PDG is condensed
// into strongly connected components (dependence cycles can never be split
// across a pipeline), the SCC DAG is cut into numThreads contiguous stages
// of a topological order, and stage weights are balanced so the slowest
// pipeline stage — which bounds throughput — is as light as possible.
// Dependences only flow forward through the pipeline.
type DSWP struct{}

// Name implements Partitioner.
func (DSWP) Name() string { return "DSWP" }

// QueueCap implements QueueCapper: the paper evaluates DSWP with 32-entry
// queues, which let pipeline stages decouple and run ahead.
func (DSWP) QueueCap() int { return 32 }

// Partition implements Partitioner.
func (DSWP) Partition(f *ir.Function, g *pdg.Graph, prof *ir.Profile, numThreads int) (map[*ir.Instr]int, error) {
	sccs := g.SCCs()
	bw := blockWeights(f, prof)
	weights := make([]int64, len(sccs))
	sccOf := make([]int, f.NumInstrIDs())
	for i, c := range sccs {
		for _, in := range c.Instrs {
			weights[i] += latency(in) * bw[in.Block().ID]
			sccOf[in.ID] = i
		}
	}

	// Dynamic communication cost of separating SCC a from SCC b: one
	// value per dependence — min(producer, consumer frequency), the rate
	// optimized placement (COCO) achieves — deduplicated per
	// (instruction, target SCC) since one queue serves all uses there.
	// commAcross[i] is the communication cost of cutting between SCCs
	// i-1 and i (arcs spanning the boundary), used to break ties among
	// equally balanced pipelines.
	commAcross := make([]int64, len(sccs)+1)
	need := make([]int64, len(sccs)) // target SCC -> the costliest arc into it from the current instruction
	mark := make([]int, len(sccs))   // mark[ts] == ID+1: need[ts] holds instruction ID's cost
	var targets []int
	f.Instrs(func(in *ir.Instr) {
		fs := sccOf[in.ID]
		targets = targets[:0]
		for _, a := range g.OutArcs(in) {
			ts := sccOf[a.To.ID]
			if ts == fs {
				continue
			}
			w := min(bw[in.Block().ID], bw[a.To.Block().ID])
			if mark[ts] != in.ID+1 {
				mark[ts], need[ts] = in.ID+1, w
				targets = append(targets, ts)
			} else if w > need[ts] {
				need[ts] = w
			}
		}
		for _, ts := range targets {
			lo, hi := min(fs, ts), max(fs, ts)
			for b := lo + 1; b <= hi; b++ {
				commAcross[b] += need[ts]
			}
		}
	})

	bounds := balanceContiguous(weights, numThreads, commAcross)

	assign := make(map[*ir.Instr]int, f.NumInstrs())
	stage := 0
	for i, c := range sccs {
		for stage < numThreads-1 && i >= bounds[stage] {
			stage++
		}
		for _, in := range c.Instrs {
			assign[in] = stage
		}
	}
	if err := validate(f, assign, numThreads); err != nil {
		return nil, err
	}
	return assign, nil
}

// balanceContiguous cuts the weight sequence into k contiguous segments
// minimizing the maximum segment weight (the classic linear-partition
// problem, solved by binary search over the bottleneck), breaking ties
// among optimally balanced cuts by the communication cost of the chosen
// boundaries (commAcross[i] is the cost of cutting between items i-1 and
// i; pass nil to ignore). It returns the exclusive end index of each of
// the first k-1 segments.
func balanceContiguous(w []int64, k int, commAcross []int64) []int {
	n := len(w)
	var total, maxw int64
	for _, x := range w {
		total += x
		if x > maxw {
			maxw = x
		}
	}
	feasible := func(cap int64) bool {
		segments := 1
		var acc int64
		for _, x := range w {
			if acc+x > cap {
				segments++
				acc = 0
			}
			acc += x
		}
		return segments <= k
	}
	lo, hi := maxw, total
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}

	if k == 2 {
		// Exhaustive boundary choice: pick the cheapest-communication
		// cut among those achieving the optimal bottleneck.
		best, bestComm := -1, int64(1<<62)
		var prefix int64
		for i := 0; i <= n; i++ {
			if i > 0 {
				prefix += w[i-1]
			}
			if prefix > lo || total-prefix > lo {
				continue
			}
			c := int64(0)
			if commAcross != nil && i < len(commAcross) {
				c = commAcross[i]
			}
			// Prefer boundaries that leave both stages nonempty.
			empty := i == 0 || i == n
			bestEmpty := best == 0 || best == n
			better := best == -1 ||
				(bestEmpty && !empty) ||
				(empty == bestEmpty && c <= bestComm)
			if better {
				best, bestComm = i, c
			}
		}
		if best >= 0 {
			return []int{best}
		}
	}

	// General k: greedy reconstruction under the optimal bottleneck.
	bounds := make([]int, 0, k-1)
	var acc int64
	for i, x := range w {
		if acc+x > lo && len(bounds) < k-1 {
			bounds = append(bounds, i)
			acc = 0
		}
		acc += x
	}
	for len(bounds) < k-1 {
		bounds = append(bounds, n)
	}
	return bounds
}
