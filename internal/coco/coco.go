package coco

import (
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/mincut"
	"repro/internal/mtcg"
	"repro/internal/pdg"
)

// Options selects COCO variants; the zero value disables everything, so use
// DefaultOptions for the paper's configuration.
type Options struct {
	// ControlPenalties enables the Section 3.1.2 arc-cost penalties that
	// steer cuts away from points requiring new branches in the target
	// thread.
	ControlPenalties bool
	// ShareMemSync enables the Section 3.1.3 multicut: all memory
	// dependences between a thread pair share synchronization points.
	// When false each memory dependence is cut (and synchronized)
	// independently — the ablation baseline.
	ShareMemSync bool
}

// DefaultOptions returns the configuration evaluated in the paper.
func DefaultOptions() Options {
	return Options{ControlPenalties: true, ShareMemSync: true}
}

// depKey identifies one optimized dependence bundle.
type depKey struct {
	kind   pdg.Kind
	reg    ir.Reg
	ts, td int
	// seq disambiguates per-dependence memory synchronizations when
	// sharing is disabled; 0 otherwise.
	seq int
}

// planner carries the state of one COCO run (Algorithm 2). Everything that
// depends only on the function and the partition is computed once, here;
// optimizePair adds what depends on the thread pair, and a single cut only
// prices the flow graph's arcs.
type planner struct {
	f        *ir.Function
	g        *pdg.Graph
	nThreads int
	prof     *ir.Profile
	opts     Options

	// thread maps instruction IDs to their thread.
	thread []int
	// closure[b] lists the blocks whose branches control block b, directly
	// or transitively.
	closure [][]int
	// blockWeight[b] is the profile's execution count of block b.
	blockWeight []int64
	// relevant[t][b] reports whether block b's terminating branch is
	// relevant to thread t (Definition 1). The sets only grow; grew records
	// that one did.
	relevant [][]bool
	grew     bool
	// occupied[t][b] reports whether thread t has an instruction in block
	// b; used for the new-block tie-break penalty.
	occupied [][]bool

	// live and safe hold, per program point, the registers live toward the
	// current pair's target thread and SAFE in its source thread.
	live, safe *dataflow.PointSets
	// fg is built by the first cut; blockCost is its per-cut scratch.
	fg        *flowGraph
	blockCost []int64
}

// Plan runs COCO (Algorithm 2) and returns the optimized communication plan
// for mtcg.Generate. The function must have had its critical edges split,
// and prof must cover every executed edge.
func Plan(f *ir.Function, g *pdg.Graph, assign map[*ir.Instr]int, numThreads int,
	prof *ir.Profile, opts Options) (*mtcg.Plan, error) {

	p := &planner{
		f: f, g: g, nThreads: numThreads, prof: prof, opts: opts,
		thread:      make([]int, f.NumInstrIDs()),
		closure:     g.CDG.Closures(),
		blockWeight: make([]int64, len(f.Blocks)),
		relevant:    make([][]bool, numThreads),
		occupied:    make([][]bool, numThreads),
		live:        dataflow.NewPointSets(f),
		safe:        dataflow.NewPointSets(f),
		blockCost:   make([]int64, len(f.Blocks)),
	}
	for _, b := range f.Blocks {
		p.blockWeight[b.ID] = prof.BlockWeight(b)
	}
	for t := range p.relevant {
		p.relevant[t] = make([]bool, len(f.Blocks))
		p.occupied[t] = make([]bool, len(f.Blocks))
	}
	f.Instrs(func(in *ir.Instr) {
		p.thread[in.ID] = assign[in]
		if in.Op != ir.Jump && in.Op != ir.Nop {
			p.occupied[assign[in]][in.Block().ID] = true
		}
	})
	p.initRelevant()

	// iterate reads nothing that changes but the relevant sets, so a pass
	// that grew none of them would be repeated exactly by the next: its
	// placements are the fixpoint.
	deps := map[depKey][]mtcg.Point{}
	maxIter := 2 + numThreads*len(f.Blocks)
	iter := 0
	for done := false; !done; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("coco: %s did not converge after %d iterations", f.Name, iter)
		}
		p.grew = false
		next, err := p.iterate(len(deps))
		if err != nil {
			return nil, err
		}
		done = !p.grew || depsEqual(deps, next)
		deps = next
	}

	plan := &mtcg.Plan{
		F:          f,
		Assign:     assign,
		NumThreads: numThreads,
		Relevant:   p.relevant,
		Iterations: iter,
		PostDom:    g.PostDom,
	}
	keys := make([]depKey, 0, len(deps))
	for k := range deps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.reg != b.reg {
			return a.reg < b.reg
		}
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.td != b.td {
			return a.td < b.td
		}
		return a.seq < b.seq
	})
	for _, k := range keys {
		if len(deps[k]) == 0 {
			continue
		}
		plan.Comms = append(plan.Comms, &mtcg.Comm{
			Kind: k.kind, Reg: k.reg, Src: k.ts, Dst: k.td, Points: deps[k],
		})
	}
	return plan, nil
}

// initRelevant seeds the relevant-branch sets with rules 1 and 3 of
// Definition 1 plus the branches controlling each thread's own instructions
// (whose control dependences must be implemented regardless of placement).
func (p *planner) initRelevant() {
	p.f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.Jump || in.Op == ir.Nop {
			return
		}
		rel, b := p.relevant[p.thread[in.ID]], in.Block().ID
		if in.Op == ir.Br {
			rel[b] = true
		}
		for _, id := range p.closure[b] {
			rel[id] = true
		}
	})
}

// markPointsRelevant adds the controllers of every chosen point to the
// target thread's relevant set (rule 2 of Definition 1 plus closure) and
// reports whether the set grew.
func (p *planner) markPointsRelevant(td int, pts []mtcg.Point) bool {
	grew := false
	for _, pt := range pts {
		for _, id := range p.closure[pt.Block.ID] {
			if !p.relevant[td][id] {
				p.relevant[td][id] = true
				grew = true
			}
		}
	}
	p.grew = p.grew || grew
	return grew
}

// pointRelevantTo implements Definition 2: every branch the block is
// directly control dependent on must be relevant to t (relevance is closed
// under rule 3, so direct controllers suffice).
func (p *planner) pointRelevantTo(t int, b *ir.Block) bool {
	for _, d := range p.g.CDG.Deps(b) {
		if !p.relevant[t][d.Branch.ID] {
			return false
		}
	}
	return true
}

// penaltyFor returns the Section 3.1.2 penalty for placing communication
// toward thread td in block b: the summed profile weight of every branch
// that would newly become relevant to td.
func (p *planner) penaltyFor(td int, b *ir.Block) int64 {
	if !p.opts.ControlPenalties {
		return 0
	}
	var pen int64
	for _, id := range p.closure[b.ID] {
		if !p.relevant[td][id] {
			pen += p.blockWeight[id]
		}
	}
	return pen
}

// executesIn reports whether instruction in runs in thread t: assigned
// there, or a branch replicated there.
func (p *planner) executesIn(in *ir.Instr, t int) bool {
	if in.Op == ir.Jump || in.Op == ir.Nop {
		return false
	}
	if p.thread[in.ID] == t {
		return true
	}
	return in.Op == ir.Br && p.relevant[t][in.Block().ID]
}

// threadPair is an arc of the thread graph G_T.
type threadPair struct{ ts, td int }

// pairs returns the thread-graph arcs in quasi-topological order.
func (p *planner) pairs() []threadPair {
	set := map[threadPair]bool{}
	for _, a := range p.g.Arcs {
		if a.From.Op == ir.Jump || a.To.Op == ir.Jump {
			continue
		}
		ts, td := p.thread[a.From.ID], p.thread[a.To.ID]
		if ts != td {
			set[threadPair{ts, td}] = true
		}
	}
	// Operand dependences of replicated branches also connect threads.
	for _, uc := range p.g.Chains {
		for _, def := range uc.Defs {
			if def == nil {
				continue
			}
			ts := p.thread[def.ID]
			if uc.Use.Op != ir.Br {
				continue
			}
			for td := 0; td < p.nThreads; td++ {
				if td != ts && p.relevant[td][uc.Use.Block().ID] {
					set[threadPair{ts, td}] = true
				}
			}
		}
	}

	// Quasi-topological order of threads (Kahn; cycles broken by thread
	// index).
	adj := make([][]int, p.nThreads)
	indeg := make([]int, p.nThreads)
	for pr := range set {
		adj[pr.ts] = append(adj[pr.ts], pr.td)
		indeg[pr.td]++
	}
	order := make([]int, 0, p.nThreads)
	used := make([]bool, p.nThreads)
	for len(order) < p.nThreads {
		best := -1
		for t := 0; t < p.nThreads; t++ {
			if !used[t] && indeg[t] == 0 {
				best = t
				break
			}
		}
		if best == -1 {
			for t := 0; t < p.nThreads; t++ {
				if !used[t] {
					best = t
					break
				}
			}
		}
		used[best] = true
		order = append(order, best)
		for _, d := range adj[best] {
			indeg[d]--
		}
	}
	pos := make([]int, p.nThreads)
	for i, t := range order {
		pos[t] = i
	}

	var out []threadPair
	for pr := range set {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		if pos[out[i].ts] != pos[out[j].ts] {
			return pos[out[i].ts] < pos[out[j].ts]
		}
		return pos[out[i].td] < pos[out[j].td]
	})
	return out
}

// iterate performs one pass over all thread pairs (the body of the
// repeat-until loop of Algorithm 2), returning the dependence placements.
// hint is how many the previous pass returned.
func (p *planner) iterate(hint int) (map[depKey][]mtcg.Point, error) {
	deps := make(map[depKey][]mtcg.Point, hint)
	for _, pr := range p.pairs() {
		if err := p.optimizePair(pr.ts, pr.td, deps); err != nil {
			return nil, err
		}
	}
	return deps, nil
}

// optimizePair computes placements for every register and for the memory
// dependences from ts to td (Sections 3.1.1–3.1.3).
func (p *planner) optimizePair(ts, td int, deps map[depKey][]mtcg.Point) error {
	// Registers with a dependence from a definition in ts to a use in td
	// (including uses by branches replicated into td).
	regSet := map[ir.Reg]bool{}
	for _, uc := range p.g.Chains {
		if !p.executesIn(uc.Use, td) {
			continue
		}
		for _, def := range uc.Defs {
			if def != nil && p.thread[def.ID] == ts && ts != td {
				regSet[uc.Reg] = true
			}
		}
	}
	var regs []ir.Reg
	for r := range regSet {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })

	if len(regs) > 0 {
		// Thread-aware analyses for this pair under the current relevant
		// sets, spread over the program points once for all registers.
		live := dataflow.ComputeLiveness(p.f, func(in *ir.Instr) []ir.Reg {
			if p.executesIn(in, td) {
				return in.Uses()
			}
			return nil
		})
		dataflow.ComputeSafety(p.f, func(in *ir.Instr) bool {
			return p.executesIn(in, ts)
		}).Points(p.safe)

		// A cut can make branches relevant to td, and the next register
		// must see their operand uses inside their own blocks (the sets
		// at block boundaries stay those of the pair's entry), so the
		// live table is respread after every cut that grew the set.
		stale := true
		for _, r := range regs {
			if stale {
				live.Points(p.live)
			}
			pts, err := p.cutRegister(r, ts, td)
			if err != nil {
				return err
			}
			deps[depKey{pdg.KindReg, r, ts, td, 0}] = pts
			stale = p.markPointsRelevant(td, pts)
		}
	}

	// Memory dependences ts -> td.
	var memArcs []*pdg.Arc
	for _, a := range p.g.Arcs {
		if a.Kind == pdg.KindMem && p.thread[a.From.ID] == ts && p.thread[a.To.ID] == td {
			memArcs = append(memArcs, a)
		}
	}
	sort.Slice(memArcs, func(i, j int) bool {
		if memArcs[i].From.ID != memArcs[j].From.ID {
			return memArcs[i].From.ID < memArcs[j].From.ID
		}
		return memArcs[i].To.ID < memArcs[j].To.ID
	})
	if len(memArcs) > 0 {
		if err := p.cutMemory(ts, td, memArcs, deps); err != nil {
			return err
		}
	}
	return nil
}

// price prepares the flow graph for one cut from ts to td: it drops the
// previous cut's terminals and gives every point its cost. A point where r
// is dead gets no capacity (it cannot lie on a def→use path); one that is
// not relevant to the source thread (Property 2) or where r is not SAFE
// there (Property 3) costs Inf; any other costs its profile weight plus the
// Section 3.1.2 penalty for the branches it would make relevant to td, and,
// below one profile unit, a tie-break for each thread that would
// materialize the point's block only to hold this communication — whole
// blocks and their jumps added to the generated CFGs. Memory (r == NoReg)
// is live and safe everywhere.
func (p *planner) price(r ir.Reg, ts, td int) (*flowGraph, error) {
	if p.fg == nil {
		fg, err := newFlowGraph(p.f, p.prof, p.live)
		if err != nil {
			return nil, err
		}
		p.fg = fg
	}
	fg := p.fg
	fg.g.Truncate(len(fg.points)) // the previous cut's terminals

	// What a point's block contributes is the same for all its points.
	for _, b := range p.f.Blocks {
		if !p.pointRelevantTo(ts, b) {
			p.blockCost[b.ID] = mincut.Inf
			continue
		}
		c := p.penaltyFor(td, b) * costScale
		if !p.occupied[ts][b.ID] {
			c++
		}
		if !p.occupied[td][b.ID] {
			c++
		}
		p.blockCost[b.ID] = c
	}
	for k := range fg.points {
		pt := &fg.points[k]
		c := p.blockCost[pt.pt.Block.ID]
		switch {
		case r != ir.NoReg && !p.live.Has(pt.pos, r):
			c = 0
		case c == mincut.Inf:
		case r != ir.NoReg && !p.safe.Has(pt.pos, r):
			c = mincut.Inf
		default:
			c += pt.weight * costScale
		}
		fg.g.SetCap(mincut.ArcID(k), c)
	}
	return fg, nil
}

// cutRegister solves the single register min-cut problem of Section 3.1.1.
func (p *planner) cutRegister(r ir.Reg, ts, td int) ([]mtcg.Point, error) {
	fg, err := p.price(r, ts, td)
	if err != nil {
		return nil, err
	}
	p.f.Instrs(func(in *ir.Instr) {
		if in.Defs() == r && p.thread[in.ID] == ts {
			fg.addSource(in)
		}
		if in.UsesReg(r) && p.executesIn(in, td) {
			fg.addSink(in)
		}
	})

	flow := fg.g.MaxFlow(fg.s, fg.t)
	if flow >= mincut.Inf {
		return nil, fmt.Errorf("coco: no finite cut for %v from thread %d to %d in %s",
			r, ts, td, p.f.Name)
	}
	if flow == 0 {
		return nil, nil // no live path: nothing to communicate
	}
	// Source-side cut: the earliest placement, pipelining values to the
	// consumer as soon as possible.
	return fg.cutPoints(fg.g.MinCutSourceSide(fg.s))
}

// cutMemory solves the multi source–sink problem of Section 3.1.3.
func (p *planner) cutMemory(ts, td int, arcs []*pdg.Arc, deps map[depKey][]mtcg.Point) error {
	if p.opts.ShareMemSync {
		// The successive-pair heuristic is order sensitive: cutting a
		// late-source pair first places synchronization where earlier
		// pairs' paths also flow, maximizing sharing. Try both program
		// orders and keep the cheaper outcome.
		reversed := make([]*pdg.Arc, len(arcs))
		for i, a := range arcs {
			reversed[len(arcs)-1-i] = a
		}
		var bestPts []mtcg.Point
		bestCost := int64(-1)
		for _, order := range [][]*pdg.Arc{reversed, arcs} {
			fg, err := p.price(ir.NoReg, ts, td) // MultiCut consumed the last pricing
			if err != nil {
				return err
			}
			var pairs []mincut.Pair
			for _, a := range order {
				pairs = append(pairs, mincut.Pair{
					S: fg.instrNode[a.From.ID],
					T: fg.instrNode[a.To.ID],
				})
			}
			res := mincut.MultiCut(fg.g, pairs)
			if res.Cost >= mincut.Inf {
				return fmt.Errorf("coco: no finite memory multicut from thread %d to %d in %s",
					ts, td, p.f.Name)
			}
			pts, err := fg.cutPoints(res.Arcs)
			if err != nil {
				return err
			}
			if bestCost < 0 || res.Cost < bestCost ||
				(res.Cost == bestCost && len(pts) < len(bestPts)) {
				bestCost, bestPts = res.Cost, pts
			}
		}
		deps[depKey{pdg.KindMem, ir.NoReg, ts, td, 0}] = bestPts
		p.markPointsRelevant(td, bestPts)
		return nil
	}

	// Ablation: every memory dependence synchronized independently.
	for i, a := range arcs {
		fg, err := p.price(ir.NoReg, ts, td)
		if err != nil {
			return err
		}
		if fg.g.MaxFlow(fg.instrNode[a.From.ID], fg.instrNode[a.To.ID]) >= mincut.Inf {
			return fmt.Errorf("coco: no finite memory cut for %v in %s", a, p.f.Name)
		}
		pts, err := fg.cutPoints(fg.g.MinCutSinkSide(fg.instrNode[a.To.ID]))
		if err != nil {
			return err
		}
		deps[depKey{pdg.KindMem, ir.NoReg, ts, td, i + 1}] = pts
		p.markPointsRelevant(td, pts)
	}
	return nil
}

// depsEqual compares two placement maps.
func depsEqual(a, b map[depKey][]mtcg.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}
