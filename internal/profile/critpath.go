package profile

import (
	"repro/internal/ir"
	"repro/internal/sim"
)

// Path is a run's dynamic critical path: the longest chain of dependent
// events, reconstructed from the simulator's issued-instruction stream.
type Path struct {
	// Length is the finish time of the path's terminal event. The path's
	// per-node blames tile [0, Length] exactly, so the blame cycles over
	// Instrs sum to Length.
	Length int64
	// Nodes is the number of events on the path.
	Nodes int
	// Instrs blames each static instruction for its share of the path,
	// sorted by cycles descending (ties: core, then instruction ID).
	Instrs []InstrBlame
	// Queues blames each synchronization-array queue for path cycles whose
	// binding arc crossed it (produce→consume arrival, or a produce waiting
	// for the consumer to free a slot), sorted like Instrs.
	Queues []QueueBlame
}

// InstrBlame is one static instruction's critical-path share.
type InstrBlame struct {
	Core   int
	ID     int
	Label  string // assembler rendering of the instruction
	Cycles int64  // cycles of the path blamed on this instruction
	Count  int64  // dynamic occurrences on the path
}

// QueueBlame is one queue's critical-path share.
type QueueBlame struct {
	Queue  int
	Cycles int64
	Count  int64
}

// Arc kinds: which dependence bound an event's issue (or completion).
const (
	arcNone    = iota // chain head: nothing earlier bound it
	arcProgram        // program order on the same core
	arcData           // register operand from an earlier instruction
	arcArrive         // consume bound by the matched produce's SA arrival
	arcSlot           // produce bound by the consume that freed its slot
)

// node is the per-event dependence record built in one pass over the
// stream: the critical (latest-binding) predecessor and its constraint
// time. Events are indexed by stream position; every predecessor has a
// smaller index (the simulator emits cycle-major, core-minor, so a matched
// produce precedes its consume and a freeing consume precedes the produce
// it unblocks).
type node struct {
	pred  int32
	time  int64
	kind  uint8
	queue int32
}

// buildPath reconstructs the dynamic dependence graph of an event stream
// and extracts its critical path. qcap is the run's queue capacity (it
// decides which consume freed the slot a produce filled).
func buildPath(events []sim.Event, threads []*ir.Function, qcap int) *Path {
	p := &Path{}
	if len(events) == 0 {
		return p
	}
	nodes := make([]node, len(events))

	// lastWriter[core][reg] is the index of the event that last wrote the
	// register, or -1.
	lastWriter := make([][]int32, len(threads))
	for i, f := range threads {
		w := make([]int32, int(f.MaxReg())+1)
		for r := range w {
			w[r] = -1
		}
		lastWriter[i] = w
	}
	lastOnCore := make([]int32, len(threads))
	lastWasTerm := make([]bool, len(threads))
	for i := range lastOnCore {
		lastOnCore[i] = -1
	}
	// Per-queue matching state: tokens is the FIFO of producing event
	// indices in push order, with head its consumption cursor; consumed
	// collects consume events in pop order.
	type qstate struct {
		tokens   []int32
		head     int
		consumed []int32
	}
	var qs []qstate

	queueOf := func(q int) *qstate {
		for len(qs) <= q {
			qs = append(qs, qstate{})
		}
		return &qs[q]
	}

	for i, e := range events {
		n := node{pred: -1, time: 0, kind: arcNone, queue: -1}
		// consider keeps the latest-binding constraint; on ties the first
		// offered wins, making the choice deterministic.
		consider := func(pred int32, t int64, kind uint8, queue int32) {
			if pred >= 0 && t > n.time {
				n.pred, n.time, n.kind, n.queue = pred, t, kind, queue
			}
		}

		// Program order: the previous event on the core. A terminator
		// binds with its resolution time (mispredict bubbles included);
		// anything else binds with its issue time (same-cycle multi-issue).
		if prev := lastOnCore[e.Core]; prev >= 0 {
			t := events[prev].Issue
			if lastWasTerm[e.Core] {
				t = events[prev].Done
			}
			consider(prev, t, arcProgram, -1)
		}
		// Register operands: stall-on-use means issue waited for each
		// writer's completion.
		for _, r := range e.In.Srcs {
			if w := lastWriter[e.Core][r]; w >= 0 {
				consider(w, events[w].Done, arcData, -1)
			}
		}

		switch e.In.Op {
		case ir.Produce, ir.ProduceSync:
			q := queueOf(e.Queue)
			// The token occupies slot (pushed mod qcap); if the queue had
			// ever been full here, the consume that freed it is pop number
			// pushed-qcap.
			if pushed := len(q.tokens); qcap > 0 && pushed >= qcap {
				if ci := pushed - qcap; ci < len(q.consumed) {
					consider(q.consumed[ci], events[q.consumed[ci]].Issue, arcSlot, int32(e.Queue))
				}
			}
			q.tokens = append(q.tokens, int32(i))
		case ir.Consume, ir.ConsumeSync:
			q := queueOf(e.Queue)
			if q.head < len(q.tokens) {
				prod := q.tokens[q.head]
				q.head++
				consider(prod, events[prod].Done, arcArrive, int32(e.Queue))
			}
			q.consumed = append(q.consumed, int32(i))
		}

		nodes[i] = n
		lastOnCore[e.Core] = int32(i)
		lastWasTerm[e.Core] = e.In.Op.IsTerminator()
		if e.In.Op.HasDst() {
			lastWriter[e.Core][e.In.Dst] = int32(i)
		}
	}

	// Terminal event: latest completion; ties go to the earliest event.
	terminal := 0
	for i, e := range events {
		if e.Done > events[terminal].Done {
			terminal = i
		}
	}
	p.Length = events[terminal].Done

	// Walk the critical chain backward, tiling [0, Length]: each node is
	// blamed for the span between the running cover and its binding
	// constraint, so the blames sum exactly to Length.
	instrBlame := map[int64]*InstrBlame{}
	queueBlame := map[int32]*QueueBlame{}
	cover := p.Length
	for i := int32(terminal); i >= 0; {
		e, n := &events[i], &nodes[i]
		seg := cover - n.time
		if seg < 0 {
			seg = 0
		} else {
			cover = n.time
		}
		p.Nodes++
		key := int64(e.Core)<<32 | int64(e.In.ID)
		ib := instrBlame[key]
		if ib == nil {
			ib = &InstrBlame{Core: e.Core, ID: e.In.ID, Label: e.In.String()}
			instrBlame[key] = ib
		}
		ib.Cycles += seg
		ib.Count++
		if n.kind == arcArrive || n.kind == arcSlot {
			qb := queueBlame[n.queue]
			if qb == nil {
				qb = &QueueBlame{Queue: int(n.queue)}
				queueBlame[n.queue] = qb
			}
			qb.Cycles += seg
			qb.Count++
		}
		i = n.pred
	}

	for _, b := range instrBlame {
		p.Instrs = append(p.Instrs, *b)
	}
	for _, b := range queueBlame {
		p.Queues = append(p.Queues, *b)
	}
	sortInstrBlame(p.Instrs)
	sortQueueBlame(p.Queues)
	return p
}
