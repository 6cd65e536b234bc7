package partition

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/pdg"
)

// GREMIO implements the global multi-threaded instruction scheduler of the
// MICRO 2007 paper [15]: a hierarchical scheduler over the loop-nest tree
// that assigns instructions to threads "based on their control relations
// and an estimate of when instructions will be ready to execute", allowing
// cyclic inter-thread dependences (unlike DSWP's pipeline).
//
// Scheduling proceeds bottom-up over the loop forest. Each loop's direct
// instructions are list-scheduled across threads by earliest estimated
// completion, with already-scheduled child loops appearing as atomic units
// that occupy all threads with their per-thread costs (the scheduler may
// swap a child's thread permutation to reduce communication). A
// cross-thread dependence costs an estimated communication latency once per
// execution of its producer, so partitions cross threads at low-frequency
// points — loop live-outs and cold slices — rather than inside hot chains.
type GREMIO struct {
	// CommLatency is the estimated per-value cost in cycles of a
	// cross-thread dependence. The zero value selects a default
	// calibrated to the synchronization array.
	CommLatency int64
}

// Name implements Partitioner.
func (GREMIO) Name() string { return "GREMIO" }

// gremioState carries one partitioning run. Its per-instruction tables are
// indexed by instruction ID.
type gremioState struct {
	f       *ir.Function
	g       *pdg.Graph
	n       int // threads
	commLat int64
	lf      *analysis.LoopForest
	// thread is the working assignment, -1 while unassigned; Partition
	// turns it into the returned map once, at the end.
	thread []int
	weight []int64 // estimated dynamic cycles (latency × block weight)
	execs  []int64 // executions: the block's profile weight
	pos    []int64 // block ID << 20 | position in the block
	// nodeOf maps an instruction to its node in the region being
	// scheduled, -1 outside it; blockHome maps a block ID to the thread its
	// first scheduled instruction went to, -1 before that.
	nodeOf    []int
	blockHome []int
	// mark and stamp deduplicate without a set per question: mark[k] ==
	// stamp means key k was seen since stamp last moved.
	mark  []int
	stamp int
}

// Partition implements Partitioner.
func (g GREMIO) Partition(f *ir.Function, dg *pdg.Graph, prof *ir.Profile, numThreads int) (map[*ir.Instr]int, error) {
	commLat := g.CommLatency
	if commLat == 0 {
		commLat = 30
	}
	ids := f.NumInstrIDs()
	st := &gremioState{
		f: f, g: dg, n: numThreads, commLat: commLat,
		lf:        analysis.FindLoops(f, nil),
		thread:    make([]int, ids),
		weight:    make([]int64, ids),
		execs:     make([]int64, ids),
		pos:       make([]int64, ids),
		nodeOf:    make([]int, ids),
		blockHome: make([]int, len(f.Blocks)),
		mark:      make([]int, ids*numThreads),
	}
	for id := range st.thread {
		st.thread[id] = -1
	}
	bw := blockWeights(f, prof)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			st.pos[in.ID] = int64(b.ID)<<20 | int64(i)
			if schedulable(in) {
				st.weight[in.ID] = latency(in) * bw[b.ID]
				st.execs[in.ID] = bw[b.ID]
			}
		}
	}

	// Bottom-up over the loop forest, then the root region.
	var scheduleLoop func(l *analysis.Loop) []int64
	costs := map[*analysis.Loop][]int64{}
	var order func(ls []*analysis.Loop)
	order = func(ls []*analysis.Loop) {
		for _, l := range ls {
			order(l.Childs)
			costs[l] = scheduleLoop(l)
		}
	}
	scheduleLoop = func(l *analysis.Loop) []int64 {
		return st.scheduleRegion(l, costs)
	}
	order(st.lf.TopLevel())
	st.scheduleRegion(nil, costs)
	st.refine()

	assign := make(map[*ir.Instr]int, f.NumInstrs())
	f.Instrs(func(in *ir.Instr) {
		if t := st.thread[in.ID]; t >= 0 {
			assign[in] = t
		}
	})
	if err := validate(f, assign, numThreads); err != nil {
		return nil, err
	}
	return assign, nil
}

// newStamp starts a fresh deduplication round over mark.
func (st *gremioState) newStamp() int {
	st.stamp++
	return st.stamp
}

// refine is a Kernighan–Lin-style cleanup pass over the list-scheduled
// assignment: each instruction moves to the thread that minimizes its total
// communication cost plus the resulting load imbalance. List scheduling
// places zero-predecessor instructions (constants, loads of loop-invariant
// addresses) purely by load balance, scattering them away from their
// consumers; a few refinement sweeps pull them back.
func (st *gremioState) refine() {
	load := make([]int64, st.n)
	for id, t := range st.thread {
		if t >= 0 {
			load[t] += st.weight[id]
		}
	}
	maxLoad := func() int64 {
		m := load[0]
		for _, l := range load[1:] {
			if l > m {
				m = l
			}
		}
		return m
	}
	// Communication cost of placing in on thread t, given the current
	// assignment of everything else. A crossing dependence costs a few
	// cycles of queue occupancy once per *dependence* — min(producer,
	// consumer) executions — since optimized communication placement
	// (COCO) communicates a value only as often as it is actually needed.
	// Each source instruction counts once, and each target thread once.
	const occupancy = 4
	seenDst := make([]int, st.n)
	commCost := func(in *ir.Instr, t int) int64 {
		var c int64
		stamp := st.newStamp()
		for _, a := range st.g.InArcs(in) {
			tf := st.thread[a.From.ID]
			if tf < 0 || tf == t || st.mark[a.From.ID] == stamp {
				continue
			}
			st.mark[a.From.ID] = stamp
			c += occupancy * min(st.execs[a.From.ID], st.execs[in.ID])
		}
		for _, a := range st.g.OutArcs(in) {
			tt := st.thread[a.To.ID]
			if tt < 0 || tt == t || seenDst[tt] == stamp {
				continue
			}
			seenDst[tt] = stamp
			c += occupancy * min(st.execs[in.ID], st.execs[a.To.ID])
		}
		return c
	}

	var instrs []*ir.Instr
	st.f.Instrs(func(in *ir.Instr) {
		if schedulable(in) {
			instrs = append(instrs, in)
		}
	})
	for sweep := 0; sweep < 4; sweep++ {
		moved := false
		for _, in := range instrs {
			cur := max(st.thread[in.ID], 0) // an unassigned instruction scores as thread 0
			w := st.weight[in.ID]
			bestT, bestScore := cur, commCost(in, cur)+maxLoad()
			for t := 0; t < st.n; t++ {
				if t == cur {
					continue
				}
				load[cur] -= w
				load[t] += w
				score := commCost(in, t) + maxLoad()
				load[cur] += w
				load[t] -= w
				if score < bestScore {
					bestT, bestScore = t, score
				}
			}
			if bestT != cur {
				load[cur] -= w
				load[bestT] += w
				st.thread[in.ID] = bestT
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

func schedulable(in *ir.Instr) bool { return in.Op != ir.Jump && in.Op != ir.Nop }

// node is one schedulable unit of a region: a direct instruction or an
// already-scheduled child loop.
type node struct {
	in    *ir.Instr      // non-nil for instruction nodes
	child *analysis.Loop // non-nil for child-loop units
}

// scheduleRegion schedules one region — loop l's direct blocks plus its
// immediate child loops, or (l == nil) the blocks outside all loops plus
// the top-level loops. It fills st.thread for the region's direct
// instructions, may permute child assignments, and returns the region's
// per-thread cost vector.
func (st *gremioState) scheduleRegion(l *analysis.Loop, costs map[*analysis.Loop][]int64) []int64 {
	// Collect nodes. Each node's position is the minimum program position
	// over its instructions; blocks and instructions are visited in program
	// order, so a node's first instruction sets it.
	var nodes []node
	var nodePos []int64
	nodeOf := st.nodeOf // instruction ID -> node index (incl. inside children)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	setNode := func(in *ir.Instr, i int) {
		nodeOf[in.ID] = i
		nodePos[i] = min(nodePos[i], st.pos[in.ID])
	}
	var children []*analysis.Loop
	if l == nil {
		children = st.lf.TopLevel()
	} else {
		children = l.Childs
	}
	childIdx := map[*analysis.Loop]int{}
	for _, c := range children {
		childIdx[c] = len(nodes)
		nodes = append(nodes, node{child: c})
		nodePos = append(nodePos, 1<<62)
	}
	inRegion := func(b *ir.Block) bool { return st.lf.InnermostLoop(b) == l }
	for _, b := range st.f.Blocks {
		if l != nil && !l.Contains(b) {
			continue
		}
		if inRegion(b) {
			for _, in := range b.Instrs {
				if schedulable(in) {
					nodes = append(nodes, node{in: in})
					nodePos = append(nodePos, 1<<62)
					setNode(in, len(nodes)-1)
				}
			}
			continue
		}
		// Block belongs to some child loop: map its instructions to the
		// immediate child containing it.
		if l != nil || st.lf.InnermostLoop(b) != nil {
			c := st.lf.InnermostLoop(b)
			for c != nil && c.Parent != l {
				c = c.Parent
			}
			if c != nil {
				for _, in := range b.Instrs {
					if schedulable(in) {
						setNode(in, childIdx[c])
					}
				}
			}
		}
	}
	nn := len(nodes)
	if nn == 0 {
		return make([]int64, st.n)
	}

	// Forward dependence DAG between nodes, with per-arc source
	// instructions kept for communication costing. Forwardness must be
	// decided at node granularity, not instruction granularity: a child
	// loop contracts to one node but its blocks can straddle a region
	// block in program order (loop body ... region block ... loop latch),
	// so instruction-level "forward" arcs can run both into and out of the
	// contracted node, forming a cycle the list scheduler never drains.
	// Node positions form a strict total order, so keeping only arcs that
	// increase it yields a DAG.
	preds := make([][]*pdg.Arc, nn)
	succs := make([][]int, nn)
	indeg := make([]int, nn)
	addSucc := func(a, b int) {
		for _, s := range succs[a] {
			if s == b {
				return
			}
		}
		succs[a] = append(succs[a], b)
		indeg[b]++
	}
	for _, a := range st.g.Arcs {
		fi, ti := nodeOf[a.From.ID], nodeOf[a.To.ID]
		if fi < 0 || ti < 0 || fi == ti {
			continue
		}
		if nodePos[fi] < nodePos[ti] {
			preds[ti] = append(preds[ti], a)
			addSucc(fi, ti)
		}
	}

	// Node weights and critical-path priorities.
	nodeWeight := func(i int) int64 {
		if nodes[i].in != nil {
			return st.weight[nodes[i].in.ID]
		}
		var w int64
		for _, c := range costs[nodes[i].child] {
			w += c
		}
		return w
	}
	prio := make([]int64, nn)
	// Topological order via Kahn for priority computation.
	topo := make([]int, 0, nn)
	tmpDeg := append([]int(nil), indeg...)
	for i := 0; i < nn; i++ {
		if tmpDeg[i] == 0 {
			topo = append(topo, i)
		}
	}
	for head := 0; head < len(topo); head++ {
		for _, s := range succs[topo[head]] {
			tmpDeg[s]--
			if tmpDeg[s] == 0 {
				topo = append(topo, s)
			}
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		u := topo[i]
		var best int64
		for _, s := range succs[u] {
			if prio[s] > best {
				best = prio[s]
			}
		}
		prio[u] = best + nodeWeight(u)
	}

	// List scheduling.
	avail := make([]int64, st.n)
	finish := make([]int64, nn)
	scheduledDeg := tmpDeg
	copy(scheduledDeg, indeg)
	ready := []int{}
	for i := 0; i < nn; i++ {
		if scheduledDeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	blockHome := st.blockHome
	for i := range blockHome {
		blockHome[i] = -1
	}
	pop := func() int {
		bi := 0
		for i := 1; i < len(ready); i++ {
			if prio[ready[i]] > prio[ready[bi]] ||
				(prio[ready[i]] == prio[ready[bi]] && ready[i] < ready[bi]) {
				bi = i
			}
		}
		u := ready[bi]
		ready = append(ready[:bi], ready[bi+1:]...)
		return u
	}

	// crossCost sums communication penalties for arcs into node u if its
	// instructions run under the given thread lookup. Crossings cost the
	// communication latency once per dependence (min of producer and
	// consumer frequency), modelling optimized placement: each (source
	// instruction, target thread) counts once.
	crossCost := func(u int, threadOfTo func(*ir.Instr) int) int64 {
		var c int64
		stamp := st.newStamp()
		for _, a := range preds[u] {
			tf := st.thread[a.From.ID]
			if tf < 0 {
				continue
			}
			tt := threadOfTo(a.To)
			if tf == tt {
				continue
			}
			if k := a.From.ID*st.n + tt; st.mark[k] != stamp {
				st.mark[k] = stamp
				c += st.commLat * min(st.execs[a.From.ID], st.execs[a.To.ID])
			}
		}
		return c
	}

	for len(ready) > 0 {
		u := pop()
		var est int64
		for _, a := range preds[u] {
			fi := nodeOf[a.From.ID]
			if finish[fi] > est {
				est = finish[fi]
			}
		}

		if nd := nodes[u]; nd.in != nil {
			in := nd.in
			bestT, bestScore := 0, int64(-1)
			for t := 0; t < st.n; t++ {
				start := avail[t]
				if est > start {
					start = est
				}
				score := start + st.weight[in.ID] +
					crossCost(u, func(*ir.Instr) int { return t })
				if blockHome[in.Block().ID] == t {
					score -= st.commLat * st.execs[in.ID] / 2
				}
				if bestScore < 0 || score < bestScore {
					bestT, bestScore = t, score
				}
			}
			st.thread[in.ID] = bestT
			if blockHome[in.Block().ID] < 0 {
				blockHome[in.Block().ID] = bestT
			}
			start := avail[bestT]
			if est > start {
				start = est
			}
			finish[u] = start + st.weight[in.ID]
			avail[bestT] = finish[u]
		} else {
			// Child loop: choose a thread permutation (identity or, for
			// two threads, the swap) minimizing completion plus
			// communication into the child.
			child := nd.child
			cv := costs[child]
			bestPerm, bestScore := 0, int64(-1)
			var bestFinish int64
			for perm := 0; perm < st.n && perm < 2; perm++ {
				mapT := func(t int) int {
					if perm == 0 || st.n < 2 {
						return t
					}
					// Swap threads 0 and 1.
					switch t {
					case 0:
						return 1
					case 1:
						return 0
					}
					return t
				}
				var completion int64
				for t := 0; t < st.n; t++ {
					end := avail[mapT(t)] + cv[t]
					if est > avail[mapT(t)] {
						end = est + cv[t]
					}
					if end > completion {
						completion = end
					}
				}
				score := completion + crossCost(u, func(to *ir.Instr) int {
					return mapT(max(st.thread[to.ID], 0))
				})
				if bestScore < 0 || score < bestScore {
					bestPerm, bestScore, bestFinish = perm, score, completion
				}
			}
			if bestPerm == 1 {
				// Apply the swap to the child's instructions. An assigned
				// instruction outside the region counts as node 0, so
				// when the child is node 0 the swap reaches it too: a
				// defect (ROADMAP item 4) kept until the partitions it
				// moves are regenerated on purpose.
				for id, t := range st.thread {
					if t < 0 || nodeOf[id] != u && (nodeOf[id] >= 0 || u != 0) {
						continue
					}
					switch t {
					case 0:
						st.thread[id] = 1
					case 1:
						st.thread[id] = 0
					}
				}
				cv = append([]int64(nil), cv...)
				cv[0], cv[1] = cv[1], cv[0]
			}
			for t := 0; t < st.n; t++ {
				end := avail[t] + cv[t]
				if est > avail[t] {
					end = est + cv[t]
				}
				if end > avail[t] {
					avail[t] = end
				}
			}
			finish[u] = bestFinish
		}

		for _, s := range succs[u] {
			scheduledDeg[s]--
			if scheduledDeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}

	// Per-thread cost vector of this region.
	out := make([]int64, st.n)
	addInstr := func(in *ir.Instr) {
		if t := st.thread[in.ID]; t >= 0 {
			out[t] += st.weight[in.ID]
		}
	}
	for _, b := range st.f.Blocks {
		if l == nil {
			if st.lf.InnermostLoop(b) == nil {
				for _, in := range b.Instrs {
					if schedulable(in) {
						addInstr(in)
					}
				}
			}
		} else if l.Contains(b) {
			for _, in := range b.Instrs {
				if schedulable(in) {
					addInstr(in)
				}
			}
		}
	}
	if l == nil {
		for _, c := range children {
			for t, w := range costs[c] {
				out[t] += w
			}
		}
	}
	return out
}

// Threads returns the sorted list of thread indices actually used by an
// assignment (a partitioner may leave threads empty on small regions).
func Threads(assign map[*ir.Instr]int) []int {
	set := map[int]bool{}
	for _, t := range assign {
		set[t] = true
	}
	var out []int
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}
