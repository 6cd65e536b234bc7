package interp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
)

// hwmBurst builds a two-thread program: thread 0 pushes n values into
// queue 0 back-to-back and then one value into queue 1; thread 1 spends n
// compute steps before draining both queues. The producer runs ahead of
// the consumer — under the default run-to-block schedule until its queue
// fills, under round-robin by the n steps — so queue 0's occupancy climbs
// to min(n, cap) while queue 1 never holds more than one value.
func hwmBurst(n int) []*ir.Function {
	prod := ir.NewFunction("prod")
	prod.NumQueues = 2
	pe := prod.NewBlock("entry")
	i := prod.NewReg()
	ci := prod.NewInstr(ir.Const, i)
	ci.Imm = 7
	pe.Append(ci)
	for k := 0; k < n; k++ {
		p := prod.NewInstr(ir.Produce, ir.NoReg, i)
		p.Queue = 0
		pe.Append(p)
	}
	p1 := prod.NewInstr(ir.Produce, ir.NoReg, i)
	p1.Queue = 1
	pe.Append(p1)
	pe.Append(prod.NewInstr(ir.Ret, ir.NoReg))

	cons := ir.NewFunction("cons")
	cons.NumQueues = 2
	ce := cons.NewBlock("entry")
	j := cons.NewReg()
	ce.Append(cons.NewInstr(ir.Const, j))
	for k := 0; k < n; k++ {
		ce.Append(cons.NewInstr(ir.Add, j, j, j))
	}
	v := cons.NewReg()
	for k := 0; k < n; k++ {
		c := cons.NewInstr(ir.Consume, v)
		c.Queue = 0
		ce.Append(c)
	}
	c1 := cons.NewInstr(ir.Consume, v)
	c1.Queue = 1
	ce.Append(c1)
	ce.Append(cons.NewInstr(ir.Ret, ir.NoReg))
	return []*ir.Function{prod, cons}
}

// TestQueueHWMTrackedPerQueue pins the high-water semantics: occupancy is
// tracked per (producer, consumer) queue. A single global maximum would
// report the burst queue's depth for the single-entry queue too. The hwm
// gauges are the published copy of MTResult.QueueHWM, one per queue.
func TestQueueHWMTrackedPerQueue(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		cap    int
		wantQ0 int64
	}{
		{cap: DefaultQueueCap, wantQ0: n}, // burst fits: hwm is the burst size
		{cap: 4, wantQ0: 4},               // capped: hwm saturates at the queue depth
	} {
		reg := obs.NewRegistry()
		res, err := RunMT(MTConfig{
			Threads: hwmBurst(n), NumQueues: 2, QueueCap: tc.cap,
			MaxSteps: 10_000, Metrics: reg.Scope("interp"),
		})
		if err != nil {
			t.Fatalf("cap=%d: %v", tc.cap, err)
		}
		if res.QueueHWM[0] != tc.wantQ0 {
			t.Errorf("cap=%d: queue 0 hwm = %d, want %d", tc.cap, res.QueueHWM[0], tc.wantQ0)
		}
		if res.QueueHWM[1] != 1 {
			t.Errorf("cap=%d: queue 1 hwm = %d, want 1 (a global high-water mark would report %d)",
				tc.cap, res.QueueHWM[1], res.QueueHWM[0])
		}
		for q := 0; q < 2; q++ {
			name := fmt.Sprintf("interp.queue.%d.hwm", q)
			if g := reg.Gauge(name).Value(); g != res.QueueHWM[q] {
				t.Errorf("cap=%d: gauge %s = %d, MTResult says %d", tc.cap, name, g, res.QueueHWM[q])
			}
		}
	}
}

// TestQueueDepthTraceEvents: with a trace lane attached, every produce and
// consume emits a queue-depth counter sample stamped with the interpreter
// step.
func TestQueueDepthTraceEvents(t *testing.T) {
	tr := obs.NewTrace()
	res, err := RunMT(MTConfig{
		Threads: hwmBurst(3), NumQueues: 2, QueueCap: DefaultQueueCap,
		MaxSteps: 10_000, Trace: tr.Lane(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, qs := range res.PerQueue {
		want += qs.Produced + qs.Consumed
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := int64(strings.Count(buf.String(), "\"ph\": \"C\"")); got != want {
		t.Errorf("trace has %d events, want one per produce/consume = %d", got, want)
	}
}
