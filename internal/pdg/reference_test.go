package pdg_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/oracle"
	"repro/internal/pdg"
	"repro/internal/randprog"
	"repro/internal/workloads"
)

// refGraph is the PDG as Build made it when its adjacency was a pair of maps
// keyed by instruction ID and every arc was deduplicated through a formatted
// string key. TestBuildMatchesReference holds the indexed Build to it.
type refGraph struct {
	arcs    []*pdg.Arc
	out, in map[int][]*pdg.Arc
}

func refBuild(f *ir.Function, objects []ir.MemObject) *refGraph {
	g := &refGraph{out: map[int][]*pdg.Arc{}, in: map[int][]*pdg.Arc{}}
	seen := map[string]bool{}
	add := func(a pdg.Arc) {
		key := fmt.Sprintf("%d/%d/%d/%d", a.From.ID, a.To.ID, a.Kind, a.Reg)
		if seen[key] {
			return
		}
		seen[key] = true
		arc := &a
		g.arcs = append(g.arcs, arc)
		g.out[a.From.ID] = append(g.out[a.From.ID], arc)
		g.in[a.To.ID] = append(g.in[a.To.ID], arc)
	}
	for _, uc := range dataflow.ComputeReachingDefs(f).Chains(dataflow.AllUses) {
		for _, def := range uc.Defs {
			if def != nil {
				add(pdg.Arc{From: def, To: uc.Use, Kind: pdg.KindReg, Reg: uc.Reg})
			}
		}
	}
	al := alias.Analyze(f, objects)
	var mems []*ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Op.IsMemAccess() {
			mems = append(mems, in)
		}
	})
	reach := analysis.Reachability(f)
	ordered := func(a, b *ir.Instr) bool {
		if a.Block() == b.Block() && a.Index() < b.Index() {
			return true
		}
		return reach[a.Block().ID][b.Block().ID]
	}
	for i, a := range mems {
		for _, b := range mems[i+1:] {
			if a.Op != ir.Store && b.Op != ir.Store || !al.MayAlias(a, b) {
				continue
			}
			if ordered(a, b) {
				add(pdg.Arc{From: a, To: b, Kind: pdg.KindMem})
			}
			if ordered(b, a) {
				add(pdg.Arc{From: b, To: a, Kind: pdg.KindMem})
			}
		}
	}
	cdg := analysis.MustControlDeps(f, nil)
	for _, blk := range f.Blocks {
		for _, d := range cdg.Deps(blk) {
			br := d.Branch.Terminator()
			for _, in := range blk.Instrs {
				if in != br && in.Op != ir.Jump {
					add(pdg.Arc{From: br, To: in, Kind: pdg.KindControl})
				}
			}
		}
	}
	return g
}

// sccs is the map-based Tarjan SCCs used before its tables were indexed by
// instruction ID.
func (g *refGraph) sccs(f *ir.Function) []*pdg.SCC {
	index := map[int]int{}
	low := map[int]int{}
	onStack := map[int]bool{}
	var stack []*ir.Instr
	var comps [][]*ir.Instr
	counter := 0
	var strongconnect func(v *ir.Instr)
	strongconnect = func(v *ir.Instr) {
		index[v.ID], low[v.ID] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v.ID] = true
		for _, a := range g.out[v.ID] {
			w := a.To
			if _, seen := index[w.ID]; !seen {
				strongconnect(w)
				if low[w.ID] < low[v.ID] {
					low[v.ID] = low[w.ID]
				}
			} else if onStack[w.ID] && index[w.ID] < low[v.ID] {
				low[v.ID] = index[w.ID]
			}
		}
		if low[v.ID] == index[v.ID] {
			var comp []*ir.Instr
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w.ID] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	f.Instrs(func(in *ir.Instr) {
		if _, seen := index[in.ID]; !seen {
			strongconnect(in)
		}
	})
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}
	sccOf := map[int]int{}
	out := make([]*pdg.SCC, len(comps))
	for ci, comp := range comps {
		out[ci] = &pdg.SCC{Instrs: comp}
		for _, in := range comp {
			sccOf[in.ID] = ci
		}
	}
	for ci, comp := range comps {
		seen := map[int]bool{}
		for _, in := range comp {
			for _, a := range g.out[in.ID] {
				if tj := sccOf[a.To.ID]; tj != ci && !seen[tj] {
					seen[tj] = true
					out[ci].Succs = append(out[ci].Succs, tj)
				}
			}
		}
	}
	return out
}

// arcPositions maps each arc to its position in its graph's arc list, so two
// graphs' adjacency lists compare as sequences of positions.
func arcPositions(arcs []*pdg.Arc) map[*pdg.Arc]int {
	pos := make(map[*pdg.Arc]int, len(arcs))
	for i, a := range arcs {
		pos[a] = i
	}
	return pos
}

// diffGraph reports the first way got differs from the reference, or "".
func diffGraph(f *ir.Function, got *pdg.Graph, want *refGraph) string {
	if len(got.Arcs) != len(want.arcs) {
		return fmt.Sprintf("%d arcs, reference has %d", len(got.Arcs), len(want.arcs))
	}
	for i := range want.arcs {
		if *got.Arcs[i] != *want.arcs[i] {
			return fmt.Sprintf("arc %d is %v, reference has %v", i, got.Arcs[i], want.arcs[i])
		}
	}
	gotPos, wantPos := arcPositions(got.Arcs), arcPositions(want.arcs)
	sameList := func(g, w []*pdg.Arc) bool {
		if len(g) != len(w) {
			return false
		}
		for i := range w {
			if p, ok := gotPos[g[i]]; !ok || p != wantPos[w[i]] {
				return false
			}
		}
		return true
	}
	var diff string
	f.Instrs(func(in *ir.Instr) {
		if diff != "" {
			return
		}
		if !sameList(got.OutArcs(in), want.out[in.ID]) {
			diff = fmt.Sprintf("OutArcs(%v) = %v, reference has %v", in, got.OutArcs(in), want.out[in.ID])
		} else if !sameList(got.InArcs(in), want.in[in.ID]) {
			diff = fmt.Sprintf("InArcs(%v) = %v, reference has %v", in, got.InArcs(in), want.in[in.ID])
		}
	})
	if diff != "" {
		return diff
	}
	stranger := &ir.Instr{ID: f.NumInstrIDs() + 3}
	if got.OutArcs(stranger) != nil || got.InArcs(stranger) != nil {
		return "an instruction ID past the function's reads arcs"
	}
	gs, ws := got.SCCs(), want.sccs(f)
	if len(gs) != len(ws) {
		return fmt.Sprintf("%d SCCs, reference has %d", len(gs), len(ws))
	}
	for i := range ws {
		if !slices.Equal(gs[i].Instrs, ws[i].Instrs) || !slices.Equal(gs[i].Succs, ws[i].Succs) {
			return fmt.Sprintf("SCC %d is %v -> %v, reference has %v -> %v",
				i, gs[i].Instrs, gs[i].Succs, ws[i].Instrs, ws[i].Succs)
		}
	}
	return ""
}

// TestBuildMatchesReference: Build and SCCs yield the same arcs in the same
// order, the same per-instruction adjacency and the same condensation as the
// map-keyed reference above, on the paper's kernels, the oracle corpus and
// random programs of three sizes.
func TestBuildMatchesReference(t *testing.T) {
	type prog struct {
		name    string
		f       *ir.Function
		objects []ir.MemObject
	}
	var progs []prog
	for _, w := range workloads.All() {
		progs = append(progs, prog{w.Name, w.F, w.Objects})
	}
	cases, err := oracle.LoadCorpus("../oracle/testdata/corpus")
	if err != nil || len(cases) == 0 {
		t.Fatalf("oracle corpus: %d cases, %v", len(cases), err)
	}
	for _, c := range cases {
		progs = append(progs, prog{c.Name, c.F, c.Objects})
	}
	for _, size := range []int{40, 160, 640} {
		n := 24
		if size == 640 {
			n = 8
		}
		for i := 0; i < n; i++ {
			seed := int64(size)*1000 + int64(i)
			_, p := randprog.GenerateSized(seed, size)
			progs = append(progs, prog{fmt.Sprintf("randprog seed %d size %d", seed, size), p.F, p.Objects})
		}
	}
	arcs := 0
	for _, p := range progs {
		got, want := pdg.Build(p.f, p.objects), refBuild(p.f, p.objects)
		if d := diffGraph(p.f, got, want); d != "" {
			t.Errorf("%s: %s", p.name, d)
		}
		arcs += len(want.arcs)
	}
	t.Logf("%d programs, %d arcs", len(progs), arcs)
}
