package coco

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
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

// planner carries the state of one COCO run (Algorithm 2).
type planner struct {
	f        *ir.Function
	g        *pdg.Graph
	assign   map[*ir.Instr]int
	nThreads int
	prof     *ir.Profile
	opts     Options

	cdg    *analysis.CDG
	chains []dataflow.UseChain
	// relevant[t] is the set of block IDs whose terminating branch is
	// relevant to thread t (Definition 1). It only grows.
	relevant []map[int]bool
	// occupied[t][blockID] reports whether thread t has an instruction in
	// the block; used for the new-block tie-break penalty.
	occupied []map[int]bool
}

// blockPenaltyFor returns the tie-break cost of placing communication from
// ts to td in block b: one sub-unit per thread that would materialize the
// block only for this communication.
func (p *planner) blockPenaltyFor(ts, td int) func(*ir.Block) int64 {
	return func(b *ir.Block) int64 {
		var c int64
		if !p.occupied[ts][b.ID] {
			c++
		}
		if !p.occupied[td][b.ID] {
			c++
		}
		return c
	}
}

// Plan runs COCO (Algorithm 2) and returns the optimized communication plan
// for mtcg.Generate. The function must have had its critical edges split,
// and prof must cover every executed edge.
func Plan(f *ir.Function, g *pdg.Graph, assign map[*ir.Instr]int, numThreads int,
	prof *ir.Profile, opts Options) (*mtcg.Plan, error) {

	cdg, err := analysis.ControlDeps(f, nil)
	if err != nil {
		return nil, err
	}
	p := &planner{
		f: f, g: g, assign: assign, nThreads: numThreads, prof: prof, opts: opts,
		cdg: cdg,
	}
	rd := dataflow.ComputeReachingDefs(f)
	p.chains = rd.Chains(dataflow.AllUses)
	p.initRelevant()
	p.occupied = make([]map[int]bool, numThreads)
	for t := range p.occupied {
		p.occupied[t] = map[int]bool{}
	}
	f.Instrs(func(in *ir.Instr) {
		if in.Op != ir.Jump && in.Op != ir.Nop {
			p.occupied[assign[in]][in.Block().ID] = true
		}
	})

	deps := map[depKey][]mtcg.Point{}
	maxIter := 2 + numThreads*len(f.Blocks)
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("coco: %s did not converge after %d iterations", f.Name, iter)
		}
		next, err := p.iterate()
		if err != nil {
			return nil, err
		}
		if depsEqual(deps, next) {
			deps = next
			break
		}
		deps = next
	}

	plan := &mtcg.Plan{
		F:          f,
		Assign:     assign,
		NumThreads: numThreads,
		Relevant:   p.relevant,
	}
	var keys []depKey
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
	p.relevant = make([]map[int]bool, p.nThreads)
	seeds := make([]map[int]bool, p.nThreads)
	for t := range seeds {
		seeds[t] = map[int]bool{}
	}
	p.f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.Jump || in.Op == ir.Nop {
			return
		}
		t := p.assign[in]
		if in.Op == ir.Br {
			seeds[t][in.Block().ID] = true
		}
		for _, d := range p.cdg.Deps(in.Block()) {
			seeds[t][d.Branch.ID] = true
		}
	})
	for t := range seeds {
		p.relevant[t] = p.cdg.ClosureOf(seeds[t])
	}
}

// markPointsRelevant adds the controllers of every chosen point to the
// target thread's relevant set (rule 2 of Definition 1 plus closure).
func (p *planner) markPointsRelevant(td int, pts []mtcg.Point) {
	add := map[int]bool{}
	for _, pt := range pts {
		for id := range p.cdg.Closure(pt.Block) {
			add[id] = true
		}
	}
	for id := range p.cdg.ClosureOf(add) {
		p.relevant[td][id] = true
	}
}

// pointRelevantTo implements Definition 2: every branch the block is
// directly control dependent on must be relevant to t (relevance is closed
// under rule 3, so direct controllers suffice).
func (p *planner) pointRelevantTo(t int, b *ir.Block) bool {
	for _, d := range p.cdg.Deps(b) {
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
	for id := range p.cdg.Closure(b) {
		if !p.relevant[td][id] {
			pen += p.prof.BlockWeight(p.f.Blocks[id])
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
	if p.assign[in] == t {
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
		ts, td := p.assign[a.From], p.assign[a.To]
		if ts != td {
			set[threadPair{ts, td}] = true
		}
	}
	// Operand dependences of replicated branches also connect threads.
	for _, uc := range p.chains {
		for _, def := range uc.Defs {
			if def == nil {
				continue
			}
			ts := p.assign[def]
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
func (p *planner) iterate() (map[depKey][]mtcg.Point, error) {
	deps := map[depKey][]mtcg.Point{}
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
	// Thread-aware analyses for this pair under the current relevant sets.
	live := dataflow.ComputeLiveness(p.f, func(in *ir.Instr) []ir.Reg {
		if p.executesIn(in, td) {
			return in.Uses()
		}
		return nil
	})
	safety := dataflow.ComputeSafety(p.f, func(in *ir.Instr) bool {
		return p.executesIn(in, ts)
	})

	// Registers with a dependence from a definition in ts to a use in td
	// (including uses by branches replicated into td).
	regSet := map[ir.Reg]bool{}
	for _, uc := range p.chains {
		if !p.executesIn(uc.Use, td) {
			continue
		}
		for _, def := range uc.Defs {
			if def != nil && p.assign[def] == ts && ts != td {
				regSet[uc.Reg] = true
			}
		}
	}
	var regs []ir.Reg
	for r := range regSet {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })

	for _, r := range regs {
		pts, err := p.cutRegister(r, ts, td, live, safety)
		if err != nil {
			return err
		}
		deps[depKey{pdg.KindReg, r, ts, td, 0}] = pts
		p.markPointsRelevant(td, pts)
	}

	// Memory dependences ts -> td.
	var memArcs []*pdg.Arc
	for _, a := range p.g.Arcs {
		if a.Kind == pdg.KindMem && p.assign[a.From] == ts && p.assign[a.To] == td {
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

// cutRegister solves the single register min-cut problem of Section 3.1.1.
func (p *planner) cutRegister(r ir.Reg, ts, td int,
	live *dataflow.Liveness, safety *dataflow.Safety) ([]mtcg.Point, error) {

	// Per-block per-position live and safe tables.
	liveTab := make(map[int][]dataflow.RegSet)
	safeTab := make(map[int][]dataflow.RegSet)
	for _, b := range p.f.Blocks {
		liveTab[b.ID] = live.BlockLive(b)
		safeTab[b.ID] = safety.BlockSafe(b)
	}

	fg, err := newFlowGraph(p.f, arcCosts{
		prof:         p.prof,
		liveAt:       func(pt mtcg.Point) bool { return liveTab[pt.Block.ID][pt.Index].Has(r) },
		safeAt:       func(pt mtcg.Point) bool { return safeTab[pt.Block.ID][pt.Index].Has(r) },
		relevantSrc:  func(b *ir.Block) bool { return p.pointRelevantTo(ts, b) },
		penalty:      func(b *ir.Block) int64 { return p.penaltyFor(td, b) },
		blockPenalty: p.blockPenaltyFor(ts, td),
	})
	if err != nil {
		return nil, err
	}
	p.f.Instrs(func(in *ir.Instr) {
		if in.Defs() == r && p.assign[in] == ts {
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
	build := func() (*flowGraph, error) {
		return newFlowGraph(p.f, arcCosts{
			prof:         p.prof,
			relevantSrc:  func(b *ir.Block) bool { return p.pointRelevantTo(ts, b) },
			penalty:      func(b *ir.Block) int64 { return p.penaltyFor(td, b) },
			blockPenalty: p.blockPenaltyFor(ts, td),
		})
	}

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
			fg, err := build()
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
		fg, err := build()
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
