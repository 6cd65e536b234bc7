package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"repro/internal/coco"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/randprog"
	"repro/internal/workloads"
)

// inlineCorpusBase is the seed of the benchmark's first inline program at
// its default seed (bench/corpus.go: subSeed(DefaultSeed, "inline"));
// program i has seed inlineCorpusBase + i and size 160.
const inlineCorpusBase = 7454799319867459659

// inlineWorkload builds inline corpus program i the way a cold_inline
// request reaches the compiler — the generated IR goes through its text
// form, and one input serves as both train and reference set — and names
// the partitioner the benchmark sends it to: GREMIO for straight-line
// programs, DSWP for the rest.
func inlineWorkload(t testing.TB, i int) (*workloads.Workload, partition.Partitioner) {
	t.Helper()
	seed := int64(inlineCorpusBase) + int64(i)
	axes, p := randprog.GenerateSized(seed, 160)
	f, err := ir.Parse(p.F.String())
	if err == nil {
		err = f.Verify() // gmtserve refuses inline IR that does not verify
	}
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	input := func() workloads.Input {
		return workloads.Input{
			Args: append([]int64(nil), p.Args...),
			Mem:  append([]int64(nil), p.Mem...),
		}
	}
	name := fmt.Sprintf("rp%d", seed)
	w := &workloads.Workload{
		Name: name, Function: name, Suite: "inline",
		F: f, Objects: p.Objects, Train: input, Ref: input,
	}
	if axes.Shape == randprog.ShapeStraight {
		return w, partition.GREMIO{}
	}
	return w, partition.DSWP{}
}

// cocoPlanDigest renders one line of the plan golden: the placements COCO
// chose (every Comm's kind, register, threads and points) and the thread
// code MTCG generates from them, each as a SHA-256 prefix, with the counts
// a reader needs to tell a moved point from a dropped dependence. passes is
// how many times Algorithm 2's loop ran to reach the plan.
func cocoPlanDigest(t *testing.T, label string, w *workloads.Workload, art *Artifact,
	part partition.Partitioner, opts coco.Options) (line string, passes int) {
	t.Helper()
	assign, err := part.Partition(w.F, art.Graph, art.Profile, 2)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	plan, err := coco.Plan(w.F, art.Graph, assign, 2, art.Profile, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var comms bytes.Buffer
	points := 0
	for _, c := range plan.Comms {
		kind := "mem"
		if c.Kind == pdg.KindReg {
			kind = "reg"
		}
		fmt.Fprintf(&comms, "%s %v %d->%d", kind, c.Reg, c.Src, c.Dst)
		for _, pt := range c.Points {
			fmt.Fprintf(&comms, " %s[%d]", pt.Block.Name, pt.Index)
		}
		comms.WriteByte('\n')
		points += len(c.Points)
	}
	prog, err := mtcg.Generate(plan)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var code bytes.Buffer
	for _, f := range prog.Threads {
		code.WriteString(f.String())
	}
	planSum, codeSum := sha256.Sum256(comms.Bytes()), sha256.Sum256(code.Bytes())
	return fmt.Sprintf("%s comms=%d points=%d plan=%x code=%x\n", label,
		len(plan.Comms), points, planSum[:12], codeSum[:12]), plan.Iterations
}

// TestCocoPlanGolden holds coco.Plan to the placements and thread code it
// produced when testdata/coco_plans.golden was generated (at 362fca4,
// before the planner stopped rebuilding its inputs per register): 64
// inline corpus programs under both partitioners with the paper's options,
// and the 11 kernels under both partitioners and all four coco.Options
// combinations. A planner change that is meant to keep its output must
// pass this without -update. The golden's lines do not carry the passes
// Algorithm 2 took, so their total is held here: 176 of the 216 plans stop
// after the one pass that grew no relevant set, 40 need a second.
func TestCocoPlanGolden(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(EngineOptions{Jobs: 1})
	var got bytes.Buffer
	passes := 0
	digest := func(label string, w *workloads.Workload, art *Artifact, part partition.Partitioner, opts coco.Options) {
		line, n := cocoPlanDigest(t, label, w, art, part, opts)
		got.WriteString(line)
		passes += n
	}
	for i := 0; i < 64; i++ {
		w, _ := inlineWorkload(t, i)
		art, err := e.Artifact(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range Partitioners() {
			digest(w.Name+"/"+part.Name(), w, art, part, coco.DefaultOptions())
		}
	}
	for _, w := range workloads.All() {
		art, err := e.Artifact(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range Partitioners() {
			for _, opts := range []coco.Options{
				{}, {ControlPenalties: true}, {ShareMemSync: true}, coco.DefaultOptions(),
			} {
				label := fmt.Sprintf("%s/%s/penalties=%t,share=%t", w.Name, part.Name(),
					opts.ControlPenalties, opts.ShareMemSync)
				digest(label, w, art, part, opts)
			}
		}
	}

	if passes != 256 {
		t.Errorf("the golden's plans took %d passes of Algorithm 2, want 256", passes)
	}

	const path = "testdata/coco_plans.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/exp -run CocoPlanGolden -update`)", err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("plan changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

// cocoWorseThanNaive lists the inline corpus programs on which COCO's
// code executes more communication instructions than naive MTCG's, with
// the dynamic counts (COCO, naive). All seven are DSWP runs whose register
// traffic is no higher than naive's; the excess is one more memory
// synchronization pair than naive MTCG executes. Recorded, not fixed: see
// ROADMAP, "COCO never communicates more than naive MTCG".
var cocoWorseThanNaive = map[string][2]int64{
	"rp7454799319867459682/DSWP": {32, 30},
	"rp7454799319867459702/DSWP": {20, 18},
	"rp7454799319867459712/DSWP": {22, 20},
	"rp7454799319867459744/DSWP": {18, 16},
	"rp7454799319867459762/DSWP": {26, 24},
	"rp7454799319867459994/DSWP": {26, 24},
	"rp7454799319867459999/DSWP": {20, 18},
}

// TestCocoNeverWorseThanNaiveCorpus promotes the paper's claim that COCO
// never communicates more than naive MTCG from the three figure fixtures
// to the benchmark's 360 inline programs, each under the partitioner
// cold_inline sends it to and profiled on the input it is measured on.
// The claim fails on exactly the programs of cocoWorseThanNaive; the test
// fails when that list is wrong in either direction. It also holds the
// share of the corpus COCO leaves as naive MTCG generated it — the programs
// a pipeline measures once (cocoLeavesNaive lists the kernels' pairs).
func TestCocoNeverWorseThanNaiveCorpus(t *testing.T) {
	n, wantSame := 360, 94
	if testing.Short() {
		n, wantSame = 64, 12 // reaches the first two known violations
	}
	visited, same := 0, 0
	for i := 0; i < n; i++ {
		w, part := inlineWorkload(t, i)
		label := w.Name + "/" + part.Name()
		p, err := NewEngine(EngineOptions{Jobs: 1}).Pipeline(context.Background(), w, part)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if sameProgram(p.Naive, p.Coco) {
			same++
		}
		naive, err := p.MeasureComm(p.Naive)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		opt, err := p.MeasureComm(p.Coco)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		known, listed := cocoWorseThanNaive[label]
		if listed {
			visited++
		}
		switch got := [2]int64{opt.Comm(), naive.Comm()}; {
		case listed && got != known:
			t.Errorf("%s: COCO executes %d communication instructions and naive MTCG %d; the known-violations list says %d and %d",
				label, got[0], got[1], known[0], known[1])
		case !listed && got[0] > got[1]:
			t.Errorf("%s: COCO executes %d communication instructions, naive MTCG %d",
				label, got[0], got[1])
		}
	}
	if !testing.Short() && visited != len(cocoWorseThanNaive) {
		t.Errorf("%d of the %d listed violations name a corpus program", visited, len(cocoWorseThanNaive))
	}
	if same != wantSame {
		t.Errorf("COCO's program is the naive program on %d of the first %d corpus programs, want %d", same, n, wantSame)
	}
}
