package sim

import (
	"bytes"
	"testing"

	"repro/internal/attr"
	"repro/internal/coco"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/pdg"
	"repro/internal/testprog"
)

// fig5Prog compiles the paper's Figure 5 program into two threads.
func fig5Prog(t *testing.T) *mtcg.Program {
	t.Helper()
	p := testprog.Fig5()
	g := pdg.Build(p.F, p.Objects)
	pl, err := coco.Plan(p.F, g, p.Assign, 2, p.Profile, coco.DefaultOptions())
	if err != nil {
		t.Fatalf("coco: %v", err)
	}
	prog, err := mtcg.Generate(pl)
	if err != nil {
		t.Fatalf("mtcg: %v", err)
	}
	return prog
}

func TestAttrConservesAndIsObservational(t *testing.T) {
	prog := fig5Prog(t)
	args := []int64{9, 1, 1}

	base, err := Run(DefaultConfig(), prog.Threads, args, make([]int64, 2), 10_000_000)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	var events []Event
	ob := &Observer{Attr: true, Events: func(e Event) { events = append(events, e) }}
	res, err := RunObserved(DefaultConfig(), prog.Threads, args, make([]int64, 2), 10_000_000, ob)
	if err != nil {
		t.Fatalf("attributed run: %v", err)
	}

	// Attribution must be purely observational: identical timing and
	// functional results.
	if res.Cycles != base.Cycles {
		t.Errorf("attribution changed timing: %d cycles vs %d", res.Cycles, base.Cycles)
	}
	for i := range base.PerCore {
		if res.PerCore[i] != base.PerCore[i] {
			t.Errorf("core %d stats diverged: %+v vs %+v", i, res.PerCore[i], base.PerCore[i])
		}
	}
	for i := range base.LiveOuts {
		if res.LiveOuts[i] != base.LiveOuts[i] {
			t.Errorf("live-out %d diverged: %d vs %d", i, res.LiveOuts[i], base.LiveOuts[i])
		}
	}

	// Exact conservation: per-core buckets sum to Cycles; instruction
	// blame sums to the core tally minus Idle.
	totals := make([]int64, len(res.PerCore))
	for i := range totals {
		totals[i] = res.Cycles
	}
	if err := res.Attr.CheckConservation(totals); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	// The event stream carries exactly the issued instructions, in
	// nondecreasing issue order per core.
	var instrs int64
	for _, c := range res.PerCore {
		instrs += c.Instrs
	}
	if int64(len(events)) != instrs {
		t.Errorf("%d events for %d issued instructions", len(events), instrs)
	}
	lastIssue := map[int]int64{}
	var produces, consumes int64
	for i, e := range events {
		if e.Issue < lastIssue[e.Core] {
			t.Fatalf("event %d: core %d issue %d before %d", i, e.Core, e.Issue, lastIssue[e.Core])
		}
		lastIssue[e.Core] = e.Issue
		if e.Done <= e.Issue && e.In.Op != ir.Ret {
			if e.Done < e.Issue {
				t.Fatalf("event %d: done %d before issue %d", i, e.Done, e.Issue)
			}
		}
		switch e.In.Op {
		case ir.Produce, ir.ProduceSync:
			produces++
			if e.Queue < 0 {
				t.Fatalf("produce event %d has queue %d", i, e.Queue)
			}
		case ir.Consume, ir.ConsumeSync:
			consumes++
		}
	}
	var wantProd, wantCons int64
	for _, c := range res.PerCore {
		wantProd += c.Produces
		wantCons += c.Consumes
	}
	if produces != wantProd || consumes != wantCons {
		t.Errorf("event stream saw %d produces / %d consumes, stats say %d / %d",
			produces, consumes, wantProd, wantCons)
	}
}

func TestAttrBlamesQueueStalls(t *testing.T) {
	// Producer fills a 1-deep queue faster than the consumer drains it:
	// some cycles must land in queue-full (producer side) or queue-empty
	// (consumer side), and the queue must be blamed.
	mk := func(n int64, produce bool) *ir.Function {
		b := ir.NewBuilder("t")
		loop, exit := b.Block("loop"), b.Block("exit")
		i := b.F.NewReg()
		b.ConstTo(i, 0)
		b.Jump(loop)
		b.SetBlock(loop)
		if produce {
			b.F.Name = "prod"
			p := b.F.NewInstr(ir.Produce, ir.NoReg, i)
			p.Queue = 0
			b.Cur().Append(p)
		} else {
			b.F.Name = "cons"
			v := b.F.NewReg()
			cn := b.F.NewInstr(ir.Consume, v)
			cn.Queue = 0
			b.Cur().Append(cn)
			// Slow consumer: burn latency on dependent multiplies.
			v2 := b.Op2(ir.Mul, v, v)
			v3 := b.Op2(ir.Mul, v2, v2)
			_ = b.Op2(ir.Mul, v3, v3)
		}
		one := b.Const(1)
		b.Op2To(i, ir.Add, i, one)
		lim := b.Const(n)
		c := b.CmpLT(i, lim)
		b.Br(c, loop, exit)
		b.SetBlock(exit)
		b.Ret()
		b.F.SplitCriticalEdges()
		b.F.NumQueues = 1
		return b.F
	}
	cfg := DefaultConfig()
	cfg.QueueCap = 1
	ob := &Observer{Attr: true}
	res, err := RunObserved(cfg, []*ir.Function{mk(200, true), mk(200, false)}, nil, nil, 10_000_000, ob)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	totals := []int64{res.Cycles, res.Cycles}
	if err := res.Attr.CheckConservation(totals); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	tot := res.Attr.TotalBuckets()
	if tot[attr.QueueFull] == 0 {
		t.Errorf("slow consumer with 1-deep queue: no queue-full cycles attributed\n%+v", tot)
	}
	qb := &res.Attr.Queues[0]
	if qb[attr.QueueFull] != tot[attr.QueueFull] || qb[attr.QueueEmpty] != tot[attr.QueueEmpty] {
		t.Errorf("queue 0 blame %+v does not carry the full comm stall tally %+v", qb, tot)
	}
}

func TestFlowEventsMatchInTrace(t *testing.T) {
	prog := fig5Prog(t)
	args := []int64{9, 1, 1}
	tr := obs.NewTrace()
	tr.ProcessName(7, "fig5")
	ob := &Observer{Trace: tr, Pid: 7, Flows: true}
	res, err := RunObserved(DefaultConfig(), prog.Threads, args, make([]int64, 2), 10_000_000, ob)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("trace: %v", err)
	}
	// CheckTraceShape verifies every flow start has exactly one matching
	// finish — i.e. every produced value's arrow lands on its consume.
	obstest.CheckTraceShape(t, buf.Bytes())
	raw := buf.String()
	var prods int64
	for _, c := range res.PerCore {
		prods += c.Produces
	}
	if prods == 0 {
		t.Fatal("fig5 program produced nothing")
	}
	if n := int64(bytes.Count(buf.Bytes(), []byte(`"ph": "s"`))); n != prods {
		t.Errorf("%d flow starts for %d produces", n, prods)
	}
	for _, want := range []string{`"ph": "f", "bp": "e"`, `"name": "produce"`, `"name": "consume"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("trace lacks %s:\n%.2000s", want, raw)
		}
	}
}
