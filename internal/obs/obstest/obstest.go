// Package obstest provides test helpers for validating observability
// artifacts, shared by the obs unit tests and the experiment harness's
// golden-trace tests.
package obstest

import (
	"encoding/json"
	"testing"
)

// CheckTraceShape asserts raw is a schema-shaped Chrome trace-event file:
// a JSON object with a non-empty traceEvents array and a drop counter,
// every event carrying name/ph/pid/tid, phases drawn from the emitted set
// (M metadata, X complete, C counter, s/f flow), complete
// events with a non-negative duration, flow events with a binding id and
// every start matched by exactly one finish, and events time-ordered
// within each (pid, tid) lane — the properties Perfetto and
// chrome://tracing rely on.
func CheckTraceShape(t *testing.T, raw []byte) {
	t.Helper()
	var top struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			Clock         string `json:"clock"`
			DroppedEvents *int64 `json:"droppedEvents"`
		} `json:"otherData"`
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if top.OtherData.DroppedEvents == nil {
		t.Error("otherData.droppedEvents missing")
	}
	lastTS := map[[2]float64]float64{}
	flowStarts := map[float64]int{}
	flowEnds := map[float64]int{}
	for i, e := range top.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
		ph, _ := e["ph"].(string)
		switch ph {
		case "M":
			args, ok := e["args"].(map[string]any)
			if !ok || args["name"] == nil {
				t.Errorf("metadata event %d lacks args.name: %v", i, e)
			}
			continue
		case "X":
			if _, ok := e["ts"]; !ok {
				t.Errorf("complete event %d missing ts: %v", i, e)
			}
			if d, ok := e["dur"].(float64); !ok || d < 0 {
				t.Errorf("complete event %d has bad dur: %v", i, e)
			}
		case "C":
			if _, ok := e["ts"]; !ok {
				t.Errorf("event %d missing ts: %v", i, e)
			}
		case "s", "f":
			if _, ok := e["ts"]; !ok {
				t.Errorf("flow event %d missing ts: %v", i, e)
			}
			id, ok := e["id"].(float64)
			if !ok {
				t.Errorf("flow event %d missing id: %v", i, e)
				continue
			}
			if ph == "s" {
				flowStarts[id]++
			} else {
				flowEnds[id]++
				if bp, _ := e["bp"].(string); bp != "e" {
					t.Errorf("flow finish %d lacks bp \"e\": %v", i, e)
				}
			}
		default:
			t.Errorf("event %d has unknown phase %q", i, ph)
			continue
		}
		pid, _ := e["pid"].(float64)
		tid, _ := e["tid"].(float64)
		ts, _ := e["ts"].(float64)
		lane := [2]float64{pid, tid}
		if prev, ok := lastTS[lane]; ok && ts < prev {
			t.Errorf("event %d out of order within lane %v: ts %v after %v", i, lane, ts, prev)
		}
		lastTS[lane] = ts
	}
	for id, n := range flowStarts {
		if flowEnds[id] != n {
			t.Errorf("flow id %v has %d starts but %d finishes", id, n, flowEnds[id])
		}
	}
	for id, n := range flowEnds {
		if _, ok := flowStarts[id]; !ok {
			t.Errorf("flow id %v has %d finishes but no start", id, n)
		}
	}
}
