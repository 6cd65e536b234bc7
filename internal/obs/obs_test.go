package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs/obstest"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	r.Gauge("g").Set(5)
	r.Gauge("g").SetMax(2) // lower: no effect
	r.Gauge("g").SetMax(9)
	r.Timer("t").Observe(10)
	r.Timer("t").Observe(20)

	if got := r.Counter("a").Value(); got != 4 {
		t.Errorf("counter a = %d, want 4", got)
	}
	if got := r.Gauge("g").Value(); got != 9 {
		t.Errorf("gauge g = %d, want 9", got)
	}
	if tm := r.Timer("t"); tm.Count() != 2 || tm.Total() != 30 {
		t.Errorf("timer t = (%d, %d), want (2, 30)", tm.Count(), tm.Total())
	}
}

func TestScopePrefixing(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("exp").Child("ks")
	s.Counter("steps").Add(7)
	if got := r.Counter("exp.ks.steps").Value(); got != 7 {
		t.Errorf("exp.ks.steps = %d, want 7", got)
	}
}

// TestNilSafety: a nil registry/scope/lane must accept every call, so
// instrumented code carries no nil checks at record sites.
func TestNilSafety(t *testing.T) {
	var r *Registry
	s := r.Scope("x")
	if s != nil {
		t.Fatal("nil registry must yield nil scope")
	}
	s.Counter("c").Add(1)
	s.Gauge("g").SetMax(2)
	s.Timer("t").Observe(3)
	s.Child("y").Counter("c").Inc()
	if got := s.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter = %d, want 0", got)
	}

	var tr *Trace
	l := tr.Lane(1, 1)
	if l != nil {
		t.Fatal("nil trace must yield nil lane")
	}
	l.Span("a", "b", 1)
	l.SpanAt("a", "b", 0, 1)
	l.Counter("q", 0, "depth", 1)
	tr.ProcessName(1, "p")
	tr.ThreadName(1, 1, "t")
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("nil trace JSON invalid: %s", buf.String())
	}
}

// TestSnapshotDeterministic: snapshot order must not depend on creation
// order.
func TestSnapshotDeterministic(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x").Add(1)
	a.Gauge("y").Set(2)
	b.Gauge("y").Set(2)
	b.Counter("x").Add(1)
	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Errorf("registry JSON depends on creation order:\n%s\nvs\n%s", ja.String(), jb.String())
	}
	if !json.Valid(ja.Bytes()) {
		t.Errorf("registry JSON invalid: %s", ja.String())
	}
}

// TestConcurrentRecording exercises the metrics plumbing under the race
// detector: many goroutines hammer the same instruments and lanes.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := r.Scope("worker")
			for j := 0; j < 1000; j++ {
				s.Counter("steps").Inc()
				s.Gauge("hwm").SetMax(int64(j))
				s.Timer("phase").Observe(1)
				l := tr.Lane(i, 0)
				l.Span("span", "test", 1)
				l.Counter("q0", int64(j), "depth", int64(j%4))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("worker.steps").Value(); got != 8000 {
		t.Errorf("steps = %d, want 8000", got)
	}
	if got := r.Gauge("worker.hwm").Value(); got != 999 {
		t.Errorf("hwm = %d, want 999", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("concurrent trace JSON invalid")
	}
}

func TestTraceEventLimit(t *testing.T) {
	tr := NewTrace()
	tr.SetLimit(3)
	l := tr.Lane(1, 1)
	for i := 0; i < 10; i++ {
		l.Span("s", "c", 1)
	}
	if tr.Dropped() != 7 {
		t.Errorf("Dropped = %d, want 7", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if kept := strings.Count(buf.String(), "\"ph\": \"X\""); kept != 3 {
		t.Errorf("%d events written, want 3", kept)
	}
	if !strings.Contains(buf.String(), "\"droppedEvents\": 7") {
		t.Errorf("drop count missing from JSON:\n%s", buf.String())
	}
}

func TestLaneCursor(t *testing.T) {
	tr := NewTrace()
	l := tr.Lane(1, 1)
	if ts := l.Span("a", "c", 10); ts != 0 {
		t.Errorf("first span ts = %d, want 0", ts)
	}
	if ts := l.Span("b", "c", 5); ts != 10 {
		t.Errorf("second span ts = %d, want 10", ts)
	}
	// Same (pid, tid) resolves to the same lane and cursor.
	if ts := tr.Lane(1, 1).Span("c", "c", 0); ts != 15 {
		t.Errorf("Lane(1,1) continues at %d, want the cached lane's 15", ts)
	}
}

// TestTraceJSONShape validates the written trace against the Chrome
// trace-event schema shape: object with traceEvents, every event carries
// name/ph/pid/tid, phases are from the emitted set, complete events have
// ts and dur, and events within a lane are time-ordered.
func TestTraceJSONShape(t *testing.T) {
	tr := NewTrace()
	tr.ProcessName(1, "proc")
	tr.ThreadName(1, 2, "lane")
	l := tr.Lane(1, 2)
	l.Span("phase", "pipeline", 10, A("size", 3))
	l.SpanAt("stall", "sim", 4, 2)
	l.Counter("q0", 5, "depth", 1)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	obstest.CheckTraceShape(t, buf.Bytes())

	// Byte-stable: writing again yields identical output.
	var buf2 bytes.Buffer
	if err := tr.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteJSON is not byte-stable across calls")
	}
}

// TestTraceFieldOrdering pins the stable field ordering the golden test
// relies on: every event line has its keys in the canonical order.
func TestTraceFieldOrdering(t *testing.T) {
	tr := NewTrace()
	l := tr.Lane(1, 1)
	l.Span("phase", "pipeline", 10, A("z", 1), A("a", 2))
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "{\"name\":") && !strings.HasPrefix(line, ",{\"name\":") {
			continue
		}
		order := []string{"\"name\":", "\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":", "\"args\":"}
		pos := -1
		for _, key := range order {
			p := strings.Index(line, key)
			if p < 0 {
				continue // optional field (cat/dur depend on phase)
			}
			if p < pos {
				t.Errorf("field %s out of order in %s", key, line)
			}
			pos = p
		}
	}
	// args keys are sorted regardless of call order.
	if !strings.Contains(buf.String(), "\"a\": 2, \"z\": 1") {
		t.Errorf("args not sorted by key:\n%s", buf.String())
	}
}

// TestFlowEvents: flow start/finish pairs serialize with matching ids and
// survive the schema checker — they are how produce→consume pairs render
// as arrows across core lanes in Perfetto.
func TestFlowEvents(t *testing.T) {
	tr := NewTrace()
	prod := tr.Lane(1, 1)
	cons := tr.Lane(1, 2)
	prod.SpanAt("produce q0", "comm", 3, 1)
	cons.SpanAt("consume q0", "comm", 9, 1)
	prod.FlowStart("q0", "comm", 7, 3)
	cons.FlowEnd("q0", "comm", 7, 9)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	obstest.CheckTraceShape(t, buf.Bytes())
	out := buf.String()
	if !strings.Contains(out, "\"ph\": \"s\", \"id\": 7, \"ts\": 3") {
		t.Errorf("missing flow start:\n%s", out)
	}
	if !strings.Contains(out, "\"ph\": \"f\", \"bp\": \"e\", \"id\": 7, \"ts\": 9") {
		t.Errorf("missing flow finish:\n%s", out)
	}

	// Nil lanes swallow flow calls like every other record.
	var nilLane *Lane
	nilLane.FlowStart("x", "y", 1, 2)
	nilLane.FlowEnd("x", "y", 1, 2)
}

// TestRecordDrops: the trace's drop tally surfaces as the obs.dropped
// counter in the metrics registry, so it reaches the metrics JSON rather
// than staying an internal number.
func TestRecordDrops(t *testing.T) {
	tr := NewTrace()
	tr.SetLimit(2)
	l := tr.Lane(1, 1)
	for i := 0; i < 5; i++ {
		l.SpanAt("e", "c", int64(i), 0)
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
	r := NewRegistry()
	RecordDrops(tr, r)
	if got := r.Counter("obs.dropped").Value(); got != 3 {
		t.Errorf("obs.dropped = %d, want 3", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"name\": \"obs.dropped\", \"type\": \"counter\", \"value\": 3") {
		t.Errorf("obs.dropped missing from metrics JSON:\n%s", buf.String())
	}

	// Nil-safe in both directions.
	RecordDrops(nil, r)
	RecordDrops(tr, nil)
}
