package obs

import (
	"fmt"
	"io"
	"sync"
)

// TraceRecord is one completed request trace, rendered once at request
// end so retention costs no re-serialization and dumps are byte-stable.
type TraceRecord struct {
	// TraceID identifies the request.
	TraceID string
	// Status is the request's final HTTP-style status code.
	Status int
	// JSON is the rendered span tree (no trailing newline).
	JSON []byte
}

// FlightRecorder is a bounded ring buffer of the last-N request traces.
// It backs both the trace-by-ID endpoint and the postmortem dumps the
// serving layer snapshots to disk on 5xx, breaker trip, or drain. All
// methods are safe for concurrent use; a nil recorder is inert.
type FlightRecorder struct {
	mu   sync.Mutex
	cap  int
	seq  int64
	recs []TraceRecord
}

// NewFlightRecorder returns a recorder retaining the last n traces
// (n ≤ 0 selects the default of 32).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 32
	}
	return &FlightRecorder{cap: n, recs: make([]TraceRecord, 0, n)}
}

// Record retains r, evicting the oldest trace when full.
func (f *FlightRecorder) Record(r TraceRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.recs) < f.cap {
		f.recs = append(f.recs, r)
	} else {
		f.recs[f.seq%int64(f.cap)] = r
	}
	f.seq++
}

// Len returns how many traces are currently retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.recs)
}

// Get returns the rendered trace with the given ID, searching newest to
// oldest.
func (f *FlightRecorder) Get(id string) ([]byte, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	recs := f.ordered()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].TraceID == id {
			return recs[i].JSON, true
		}
	}
	return nil, false
}

// ordered returns retained records oldest to newest. Caller holds f.mu.
func (f *FlightRecorder) ordered() []TraceRecord {
	if f.seq <= int64(f.cap) {
		return f.recs
	}
	head := int(f.seq % int64(f.cap))
	out := make([]TraceRecord, 0, len(f.recs))
	out = append(out, f.recs[head:]...)
	out = append(out, f.recs[:head]...)
	return out
}

// WriteDump renders the newest n retained traces oldest to newest, with
// the dump's reason and sequence number, in a stable format: two dumps of
// the same recorder state are byte-identical.
func (f *FlightRecorder) WriteDump(w io.Writer, reason string, dumpSeq int64, n int) error {
	if f == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	f.mu.Lock()
	recs := f.ordered()
	recs = append([]TraceRecord(nil), recs[max(0, len(recs)-n):]...)
	total := f.seq
	f.mu.Unlock()
	if _, err := fmt.Fprintf(w, "{\n\"schema\": 1,\n\"reason\": %s,\n\"dump\": %d,\n\"recorded\": %d,\n\"retained\": %d,\n\"traces\": [",
		jsonString(reason), dumpSeq, total, len(recs)); err != nil {
		return err
	}
	for i, r := range recs {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s\n{\"trace_id\": %s, \"status\": %d, \"trace\":\n%s}",
			sep, jsonString(r.TraceID), r.Status, r.JSON); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n}\n")
	return err
}
