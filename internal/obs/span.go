// Span trees: a lightweight per-request trace. Where the Chrome
// trace-event writer (trace.go) records whole-experiment timelines for
// offline viewing, a SpanTree records the causal story of one request —
// parent-linked spans with typed attributes — cheaply enough to build
// one per served request and render it byte-deterministically for the
// trace endpoint and the flight recorder.
//
// Durations are logical: the default clock is a per-tree counter that
// ticks once per span event, so "duration" means "number of trace
// events that happened inside this span", which is deterministic for a
// serial request. Wall-clock can only enter through an injected clock;
// no code path in this package reads time.Now.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// TraceID derives a stable 16-hex-digit identifier from the given
// parts. The same parts always produce the same ID, which is what lets
// two runs of the same scenario emit byte-identical traces and lets a
// stress-sweep cell name its trace before it runs.
func TraceID(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// SpanTree is one trace: a set of spans linked by parent IDs. All
// methods are safe for concurrent use and inert on a nil tree.
type SpanTree struct {
	mu      sync.Mutex
	traceID string
	clock   func() int64
	logical int64
	spans   []*Span
}

// NewSpanTree starts an empty trace. clock supplies timestamps; nil
// means a per-tree logical counter that ticks once per span event
// (start, finish), which keeps serial traces byte-deterministic.
func NewSpanTree(traceID string, clock func() int64) *SpanTree {
	return &SpanTree{traceID: traceID, clock: clock}
}

// TraceID returns the trace's identifier.
func (t *SpanTree) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// now must be called with t.mu held.
func (t *SpanTree) now() int64 {
	if t.clock != nil {
		return t.clock()
	}
	t.logical++
	return t.logical
}

func (t *SpanTree) newSpan(parent int, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{tree: t, id: len(t.spans) + 1, parent: parent, name: name, start: t.now()}
	s.end = s.start
	t.spans = append(t.spans, s)
	return s
}

// Root starts a top-level span.
func (t *SpanTree) Root(name string) *Span {
	return t.newSpan(0, name)
}

// CountSpans returns how many spans in the tree have the given name.
func (t *SpanTree) CountSpans(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// Span is one node in a SpanTree. A nil span is valid and records
// nothing, so instrumented code needs no nil checks.
type Span struct {
	tree   *SpanTree
	id     int
	parent int
	name   string
	start  int64
	end    int64
	endSet bool
	attrs  []spanAttr
}

type spanAttr struct {
	key   string
	str   string
	num   int64
	isStr bool
}

// Child starts a sub-span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tree.newSpan(s.id, name)
}

// SetStr records a string attribute, replacing any prior value for key.
// It returns s for chaining.
func (s *Span) SetStr(key, v string) *Span {
	return s.setAttr(spanAttr{key: key, str: v, isStr: true})
}

// SetInt records an integer attribute, replacing any prior value for
// key. It returns s for chaining.
func (s *Span) SetInt(key string, v int64) *Span {
	return s.setAttr(spanAttr{key: key, num: v})
}

func (s *Span) setAttr(a spanAttr) *Span {
	if s == nil {
		return nil
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			return s
		}
	}
	s.attrs = append(s.attrs, a)
	return s
}

// StrAttr returns the value of a string attribute, if set.
func (s *Span) StrAttr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	for _, a := range s.attrs {
		if a.key == key && a.isStr {
			return a.str, true
		}
	}
	return "", false
}

// Times returns the span's recorded start and end timestamps.
func (s *Span) Times() (start, end int64) {
	if s == nil {
		return 0, 0
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	return s.start, s.end
}

// Finish stamps the span's end time. A second Finish is a no-op; an
// unfinished span renders with end == start.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	if !s.endSet {
		s.end = s.tree.now()
		s.endSet = true
	}
}

// WriteJSON renders the tree with stable field ordering: one span per
// line in creation order, attributes sorted by key. The output carries
// no trailing newline so it can be embedded verbatim in a flight dump.
func (t *SpanTree) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{}")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// The server renders a tree per request, so this is append and
	// strconv into one buffer and one Write — no fmt, no per-attribute
	// allocation.
	b := make([]byte, 0, 256+128*len(t.spans))
	b = append(b, "{\n\"trace_id\": "...)
	b = appendJSONString(b, t.traceID)
	b = append(b, ",\n\"clock\": \"logical\",\n\"spans\": ["...)
	var attrs []spanAttr
	for i, s := range t.spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n{\"id\": "...)
		b = strconv.AppendInt(b, int64(s.id), 10)
		b = append(b, ", \"parent\": "...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, ", \"name\": "...)
		b = appendJSONString(b, s.name)
		b = append(b, ", \"start\": "...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, ", \"end\": "...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, ", \"attrs\": {"...)
		attrs = append(attrs[:0], s.attrs...)
		slices.SortFunc(attrs, func(x, y spanAttr) int { return strings.Compare(x.key, y.key) })
		for j, a := range attrs {
			if j > 0 {
				b = append(b, ", "...)
			}
			b = appendJSONString(b, a.key)
			b = append(b, ": "...)
			if a.isStr {
				b = appendJSONString(b, a.str)
			} else {
				b = strconv.AppendInt(b, a.num, 10)
			}
		}
		b = append(b, "}}"...)
	}
	b = append(b, "\n]\n}"...)
	_, err := w.Write(b)
	return err
}
