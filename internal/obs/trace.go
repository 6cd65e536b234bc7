package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// DefaultTraceLimit bounds the number of timeline events a Trace buffers.
// Detailed per-cycle timelines (simulator stalls, queue occupancy) can
// reach hundreds of thousands of events on the reference inputs; beyond
// the limit events are dropped and counted, never silently discarded —
// the drop count appears in the written JSON's otherData and via
// Dropped().
const DefaultTraceLimit = 200_000

// Arg is one key/value pair attached to a trace event. Values are int64
// because every recorded quantity is a deterministic count.
type Arg struct {
	Key string
	Val int64
}

// A is shorthand for constructing an Arg.
func A(key string, val int64) Arg { return Arg{Key: key, Val: val} }

type laneKey struct{ pid, tid int }

type event struct {
	name, cat string
	ph        byte // 'X' complete, 'C' counter, 's'/'f' flow
	ts, dur   int64
	pid, tid  int
	seq       int64
	id        int64 // flow-event binding id ('s'/'f' only)
	args      []Arg
}

// Trace buffers Chrome trace-event (about://tracing, Perfetto) events.
// Timestamps are abstract units — interpreter steps or simulator cycles —
// chosen by the instrumented code; the viewer renders them as
// microseconds, which only affects axis labels.
//
// Events are appended concurrently from the experiment engine's worker
// pool; WriteJSON orders them by (pid, tid, ts, sequence), which is
// deterministic because every lane is written by one logical sequence of
// phases.
type Trace struct {
	mu          sync.Mutex
	limit       int
	dropped     int64
	seq         int64
	events      []event
	lanes       map[laneKey]*Lane
	procNames   map[int]string
	threadNames map[laneKey]string
}

// NewTrace returns an empty trace with the default event limit.
func NewTrace() *Trace {
	return &Trace{
		limit:       DefaultTraceLimit,
		lanes:       map[laneKey]*Lane{},
		procNames:   map[int]string{},
		threadNames: map[laneKey]string{},
	}
}

// SetLimit replaces the event limit (<= 0 restores the default).
// Metadata (process and thread names) is never dropped.
func (t *Trace) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		n = DefaultTraceLimit
	}
	t.limit = n
}

// Dropped returns the number of events discarded over the limit.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// ProcessName labels a pid in the viewer.
func (t *Trace) ProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procNames[pid] = name
}

// ThreadName labels a (pid, tid) lane in the viewer.
func (t *Trace) ThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.threadNames[laneKey{pid, tid}] = name
}

// Lane returns the (pid, tid) lane, creating it on first use. Repeated
// calls return the same lane, so its cursor survives across phases.
// A nil trace returns a nil lane, whose methods record nothing.
func (t *Trace) Lane(pid, tid int) *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := laneKey{pid, tid}
	l, ok := t.lanes[k]
	if !ok {
		l = &Lane{t: t, pid: pid, tid: tid}
		t.lanes[k] = l
	}
	return l
}

func (t *Trace) emit(e event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.seq++
	e.seq = t.seq
	sort.Slice(e.args, func(i, j int) bool { return e.args[i].Key < e.args[j].Key })
	t.events = append(t.events, e)
}

// Lane is one (pid, tid) track of the trace. The cursor supports
// self-clocked spans: each Span starts where the previous one on the
// lane ended, so pipeline phases with abstract durations tile the track.
// A nil lane records nothing.
type Lane struct {
	t        *Trace
	pid, tid int

	mu     sync.Mutex
	cursor int64
}

// Span appends a complete event of the given abstract duration at the
// lane cursor and advances the cursor past it. It returns the span's
// start timestamp.
func (l *Lane) Span(name, cat string, dur int64, args ...Arg) int64 {
	if l == nil {
		return 0
	}
	if dur < 0 {
		dur = 0
	}
	l.mu.Lock()
	ts := l.cursor
	l.cursor += dur
	l.mu.Unlock()
	l.t.emit(event{name: name, cat: cat, ph: 'X', ts: ts, dur: dur, pid: l.pid, tid: l.tid, args: args})
	return ts
}

// SpanAt appends a complete event at an explicit timestamp (simulator
// cycle, interpreter step) without touching the cursor.
func (l *Lane) SpanAt(name, cat string, ts, dur int64, args ...Arg) {
	if l == nil {
		return
	}
	l.t.emit(event{name: name, cat: cat, ph: 'X', ts: ts, dur: dur, pid: l.pid, tid: l.tid, args: args})
}

// Counter appends a counter sample (rendered as a stacked area track).
func (l *Lane) Counter(name string, ts int64, series string, v int64) {
	if l == nil {
		return
	}
	l.t.emit(event{name: name, ph: 'C', ts: ts, pid: l.pid, tid: l.tid, args: []Arg{{series, v}}})
}

// FlowStart appends a flow-start event ('s') at an explicit timestamp. A
// flow links two points of the trace — Perfetto draws an arrow from the
// start to the matching FlowEnd with the same id — and is how the
// simulator's produce→consume pairs are made visible across core lanes.
func (l *Lane) FlowStart(name, cat string, id, ts int64) {
	if l == nil {
		return
	}
	l.t.emit(event{name: name, cat: cat, ph: 's', ts: ts, pid: l.pid, tid: l.tid, id: id})
}

// FlowEnd appends the matching flow-finish event ('f', binding point
// "enclosing slice") for the FlowStart with the same id.
func (l *Lane) FlowEnd(name, cat string, id, ts int64) {
	if l == nil {
		return
	}
	l.t.emit(event{name: name, cat: cat, ph: 'f', ts: ts, pid: l.pid, tid: l.tid, id: id})
}

// RecordDrops surfaces the trace's drop tally as the "obs.dropped" counter
// in r, so metrics consumers see how many timeline events fell past the
// event limit without having to consult the trace file's otherData. Call it
// once, after the run and before serializing r; nil t or r records nothing.
func RecordDrops(t *Trace, r *Registry) {
	if t == nil || r == nil {
		return
	}
	r.Counter("obs.dropped").Add(t.Dropped())
}

// WriteJSON renders the trace in Chrome trace-event format: a JSON
// object with a traceEvents array that loads in chrome://tracing and
// Perfetto. Output is deterministic: metadata first (sorted by pid, tid),
// then timeline events sorted by (pid, tid, ts, seq), one event per line,
// fields always in the order name, cat, ph, ts, dur, pid, tid, args with
// args keys sorted.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"traceEvents\": []}\n")
		return err
	}
	t.mu.Lock()
	events := make([]event, len(t.events))
	copy(events, t.events)
	dropped := t.dropped
	procs := make([]int, 0, len(t.procNames))
	for pid := range t.procNames {
		procs = append(procs, pid)
	}
	threads := make([]laneKey, 0, len(t.threadNames))
	for k := range t.threadNames {
		threads = append(threads, k)
	}
	procNames := t.procNames
	threadNames := t.threadNames
	t.mu.Unlock()

	sort.Ints(procs)
	sort.Slice(threads, func(i, j int) bool {
		if threads[i].pid != threads[j].pid {
			return threads[i].pid < threads[j].pid
		}
		return threads[i].tid < threads[j].tid
	})
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.seq < b.seq
	})

	if _, err := fmt.Fprintf(w,
		"{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"clock\": %s, \"droppedEvents\": %d},\n\"traceEvents\": [",
		jsonString("deterministic (interpreter steps / simulator cycles)"), dropped); err != nil {
		return err
	}
	first := true
	line := func(format string, args ...any) error {
		sep := ","
		if first {
			sep = ""
			first = false
		}
		_, err := fmt.Fprintf(w, sep+"\n"+format, args...)
		return err
	}
	for _, pid := range procs {
		if err := line("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": 0, \"args\": {\"name\": %s}}",
			pid, jsonString(procNames[pid])); err != nil {
			return err
		}
	}
	for _, k := range threads {
		if err := line("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": %d, \"args\": {\"name\": %s}}",
			k.pid, k.tid, jsonString(threadNames[k])); err != nil {
			return err
		}
	}
	for _, e := range events {
		args := ""
		for i, a := range e.args {
			if i > 0 {
				args += ", "
			}
			args += fmt.Sprintf("%s: %d", jsonString(a.Key), a.Val)
		}
		var err error
		switch e.ph {
		case 'X':
			err = line("{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %d, \"dur\": %d, \"pid\": %d, \"tid\": %d, \"args\": {%s}}",
				jsonString(e.name), jsonString(e.cat), e.ts, e.dur, e.pid, e.tid, args)
		case 'C':
			err = line("{\"name\": %s, \"ph\": \"C\", \"ts\": %d, \"pid\": %d, \"tid\": %d, \"args\": {%s}}",
				jsonString(e.name), e.ts, e.pid, e.tid, args)
		case 's':
			err = line("{\"name\": %s, \"cat\": %s, \"ph\": \"s\", \"id\": %d, \"ts\": %d, \"pid\": %d, \"tid\": %d, \"args\": {%s}}",
				jsonString(e.name), jsonString(e.cat), e.id, e.ts, e.pid, e.tid, args)
		case 'f':
			err = line("{\"name\": %s, \"cat\": %s, \"ph\": \"f\", \"bp\": \"e\", \"id\": %d, \"ts\": %d, \"pid\": %d, \"tid\": %d, \"args\": {%s}}",
				jsonString(e.name), jsonString(e.cat), e.id, e.ts, e.pid, e.tid, args)
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n}\n")
	return err
}
