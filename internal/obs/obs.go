// Package obs is the observability layer: a deterministic metrics
// registry and a Chrome trace-event writer shared by the compile
// pipeline (internal/exp), the multi-threaded interpreter
// (internal/interp), and the cycle-level simulator (internal/sim).
//
// Every recorded value is deterministic: durations and timestamps are
// interpreter steps or simulator cycles, never wall-clock, so two runs of
// the same experiment produce byte-identical metrics and trace files —
// which is what lets the golden tests pin the output and lets a perf PR
// diff before/after artifacts without noise.
//
// All instruments are safe for concurrent use (the experiment engine
// records from its worker pool); counters and gauges are single atomic
// words, so recording on a hot path costs one uncontended atomic op.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count (instructions issued,
// values produced, phases run).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-or-max value (queue depth high-water mark, artifact
// size).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is larger (high-water tracking).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates durations measured in abstract units (interpreter
// steps, simulator cycles — never wall-clock).
type Timer struct {
	count atomic.Int64
	total atomic.Int64
}

// Observe records one duration of d units.
func (t *Timer) Observe(d int64) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.total.Add(d)
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated units.
func (t *Timer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// Registry holds named metrics. Instruments are created on first use and
// identified by their full dotted name; concurrent lookups of the same
// name return the same instrument.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		timers:     map[string]*Timer{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the timer with the given name, creating it if needed.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the histogram with the given name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Scope returns a view of the registry that prefixes every metric name
// with prefix + ".". A nil registry yields a nil scope, whose instruments
// are inert, so instrumented code needs no nil checks at record sites.
func (r *Registry) Scope(prefix string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, prefix: prefix}
}

// Scope is a name-prefixed view of a registry. The zero of *Scope (nil)
// is valid and records nothing.
type Scope struct {
	r      *Registry
	prefix string
}

func (s *Scope) name(n string) string {
	if s.prefix == "" {
		return n
	}
	return s.prefix + "." + n
}

// Counter returns the scoped counter (nil instrument on a nil scope).
func (s *Scope) Counter(n string) *Counter {
	if s == nil {
		return nil
	}
	return s.r.Counter(s.name(n))
}

// Gauge returns the scoped gauge (nil instrument on a nil scope).
func (s *Scope) Gauge(n string) *Gauge {
	if s == nil {
		return nil
	}
	return s.r.Gauge(s.name(n))
}

// Timer returns the scoped timer (nil instrument on a nil scope).
func (s *Scope) Timer(n string) *Timer {
	if s == nil {
		return nil
	}
	return s.r.Timer(s.name(n))
}

// Histogram returns the scoped histogram (nil instrument on a nil
// scope).
func (s *Scope) Histogram(n string) *Histogram {
	if s == nil {
		return nil
	}
	return s.r.Histogram(s.name(n))
}

// Child returns a sub-scope with prefix appended.
func (s *Scope) Child(prefix string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{r: s.r, prefix: s.name(prefix)}
}

// Metric is one exported measurement.
type Metric struct {
	Name string
	// Type is "counter", "gauge", "timer", or "histogram".
	Type string
	// Value is the count, gauge value, timer total, or histogram sum.
	Value int64
	// Count is the number of observations (timers and histograms).
	Count int64
	// Buckets holds the non-empty buckets (histograms only).
	Buckets []HistogramBucket
}

// Snapshot returns every metric sorted by (type, name) — a deterministic
// ordering independent of creation order.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.timers))
	for name, c := range r.counters {
		ms = append(ms, Metric{Name: name, Type: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		ms = append(ms, Metric{Name: name, Type: "gauge", Value: g.Value()})
	}
	for name, t := range r.timers {
		ms = append(ms, Metric{Name: name, Type: "timer", Value: t.Total(), Count: t.Count()})
	}
	for name, h := range r.histograms {
		ms = append(ms, Metric{Name: name, Type: "histogram", Value: h.Sum(), Count: h.Count(), Buckets: h.Buckets()})
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Name != ms[j].Name {
			return ms[i].Name < ms[j].Name
		}
		return ms[i].Type < ms[j].Type
	})
	return ms
}

// WriteJSON renders the registry with stable field ordering: one metric
// per line, sorted by name, fields always in the order name, type, value
// [, count]. The output is byte-identical across runs of a deterministic
// workload.
func (r *Registry) WriteJSON(w io.Writer) error {
	ms := r.Snapshot()
	if _, err := fmt.Fprintf(w, "{\n\"clock\": %s,\n\"metrics\": [",
		jsonString("deterministic (interpreter steps / simulator cycles)")); err != nil {
		return err
	}
	for i, m := range ms {
		sep := ","
		if i == 0 {
			sep = ""
		}
		var line string
		if m.Type == "histogram" {
			var bs []byte
			for i, b := range m.Buckets {
				if i > 0 {
					bs = append(bs, ',')
				}
				bs = append(bs, fmt.Sprintf("[%d,%d]", b.Bound, b.N)...)
			}
			line = fmt.Sprintf("%s\n{\"name\": %s, \"type\": %s, \"value\": %d, \"count\": %d, \"buckets\": [%s]}",
				sep, jsonString(m.Name), jsonString(m.Type), m.Value, m.Count, bs)
		} else if m.Type == "timer" {
			line = fmt.Sprintf("%s\n{\"name\": %s, \"type\": %s, \"value\": %d, \"count\": %d}",
				sep, jsonString(m.Name), jsonString(m.Type), m.Value, m.Count)
		} else {
			line = fmt.Sprintf("%s\n{\"name\": %s, \"type\": %s, \"value\": %d}",
				sep, jsonString(m.Name), jsonString(m.Type), m.Value)
		}
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n}\n")
	return err
}

// jsonString renders s as a JSON string literal (encoding/json escaping,
// so any name is safe).
func jsonString(s string) string {
	return string(appendJSONString(nil, s))
}

// appendJSONString appends s as a JSON string literal, byte for byte what
// json.Marshal writes. Span names, attribute keys and nearly every value
// are printable ASCII that json.Marshal copies through unescaped, so
// those are quoted in place; anything else — quotes, backslashes, control
// bytes, the <, > and & that encoding/json escapes for HTML, non-ASCII,
// invalid UTF-8 — goes to json.Marshal itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			m, err := json.Marshal(s)
			if err != nil { // cannot happen for a string
				panic(err)
			}
			return append(b, m...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
