// Request telemetry: the glue between one request's span tree and the
// places it is kept — the bounded trace store behind GET /v1/trace/{id},
// the flight recorder snapshotted to disk on 5xx, breaker trip, or
// drain, and the structured JSON access log.
//
// Everything here is timed by the server's logical clock, so a serial
// request sequence renders byte-identical traces,
// dumps, and log lines on every run — the property the golden tests and
// the CI smoke jobs pin.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/cache"
	"repro/internal/obs"
)

// spanCacheEvents copies one cache call's per-operation events onto its
// span: which layer answered and every fault-handling action the call
// took. Zero-valued events are omitted so the common clean path stays
// one attribute.
func spanCacheEvents(sp *obs.Span, ev *cache.OpEvents) {
	if ev.Layer != "" {
		sp.SetStr("layer", ev.Layer)
	}
	for _, f := range []struct {
		key string
		n   int64
	}{
		{"retries", ev.Retries},
		{"read_errors", ev.ReadErrors},
		{"write_errors", ev.WriteErrors},
		{"corrupt", ev.Corrupt},
		{"quarantined", ev.Quarantined},
		{"breaker_bypass", ev.Bypass},
		{"breaker_probes", ev.Probes},
		{"breaker_trips", ev.BreakerTrips},
		{"breaker_closes", ev.BreakerCloses},
	} {
		if f.n > 0 {
			sp.SetInt(f.key, f.n)
		}
	}
}

// finishTrace renders a completed request's span tree once and fans the
// bytes out: trace retention, access log, and — on a 5xx — an immediate
// flight dump so the failure's own trace is in it.
func (s *Server) finishTrace(tree *obs.SpanTree, root *obs.Span, req *Request, res Result) {
	var buf bytes.Buffer
	tree.WriteJSON(&buf)
	rec := obs.TraceRecord{TraceID: tree.TraceID(), Status: res.Status, JSON: buf.Bytes()}
	s.traces.Record(rec)
	s.logAccess(tree, root, req, res)
	if res.Status >= 500 {
		s.dumpFlight("5xx")
	}
}

// flightDumpTraces is how many of the newest retained traces a flight
// dump holds.
const flightDumpTraces = 32

// dumpFlight snapshots the newest retained traces to
// flightDir/flight-<seq>-<reason>.json, atomically through the server's
// vfs (durable when the server is). A "" flightDir disables dumping; a
// failed dump is counted, never propagated — telemetry must not take a
// request down with it.
func (s *Server) dumpFlight(reason string) {
	if s.flightDir == "" {
		return
	}
	seq := s.dumpSeq.Add(1)
	var buf bytes.Buffer
	if err := s.traces.WriteDump(&buf, reason, seq, flightDumpTraces); err != nil {
		s.scope.Counter("flight.dump_errors").Inc()
		return
	}
	path := filepath.Join(s.flightDir, fmt.Sprintf("flight-%03d-%s.json", seq, reason))
	if err := s.fs.MkdirAll(s.flightDir); err != nil {
		s.scope.Counter("flight.dump_errors").Inc()
		return
	}
	if err := s.fs.WriteFile(path, buf.Bytes(), s.durable); err != nil {
		s.scope.Counter("flight.dump_errors").Inc()
		return
	}
	s.scope.Counter("flight.dumps").Inc()
}

// accessLine is one JSON access-log record. Field order is the struct
// order, so lines are byte-stable for a deterministic request sequence.
type accessLine struct {
	TraceID     string `json:"trace_id"`
	Workload    string `json:"workload"`
	Partitioner string `json:"partitioner"`
	Status      int    `json:"status"`
	Source      string `json:"source"`
	Cache       string `json:"cache"`
	Degraded    int    `json:"degraded"`
	Start       int64  `json:"start"`
	End         int64  `json:"end"`
}

// accessLogger serializes concurrent writers onto one line-oriented
// sink. A nil logger is inert.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func newAccessLogger(w io.Writer) *accessLogger {
	if w == nil {
		return nil
	}
	return &accessLogger{w: w}
}

func (l *accessLogger) write(line []byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(line)
	l.w.Write([]byte("\n"))
}

// logAccess emits one structured line per request: identity, outcome,
// cache path, degradation-hop count, and the logical start/end times of
// the root span.
func (s *Server) logAccess(tree *obs.SpanTree, root *obs.Span, req *Request, res Result) {
	if s.access == nil {
		return
	}
	workload := req.Workload
	if workload == "" {
		workload = req.Name
		if workload == "" {
			workload = "inline"
		}
	}
	part := req.Partitioner
	if part == "" {
		part = "gremio"
	}
	cachePath, _ := root.StrAttr("cache")
	if cachePath == "" {
		cachePath = "none"
	}
	start, end := root.Times()
	line, err := json.Marshal(accessLine{
		TraceID:     res.TraceID,
		Workload:    workload,
		Partitioner: part,
		Status:      res.Status,
		Source:      res.Source,
		Cache:       cachePath,
		Degraded:    tree.CountSpans("degrade"),
		Start:       start,
		End:         end,
	})
	if err != nil {
		return
	}
	s.access.write(line)
}
