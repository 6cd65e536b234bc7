package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/interp"
	"repro/internal/sim"
)

// FuzzInlineIR feeds arbitrary text through Request.workload, the door
// inline IR comes in by (ROADMAP 6c). It must be refused with an error or
// come out a function that verifies; and a verified function must run in
// the golden interpreter and on one simulated core to a result or an error
// within a small budget, never a panic.
func FuzzInlineIR(f *testing.F) {
	files, err := filepath.Glob("../oracle/testdata/corpus/*.ir")
	if err != nil || len(files) == 0 {
		f.Fatalf("no oracle corpus to seed from (%v)", err)
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Add(hugeRegister)
	f.Add(wideTables(widestAdmitted + 1))
	f.Add(blockChain(mostBlocksAdmitted+1, 0))
	f.Add(blockChain(5000, 3))
	f.Add(inlineComm)
	f.Fuzz(func(t *testing.T, text string) {
		w, err := (&Request{IR: text}).workload()
		if err != nil {
			return
		}
		if err := w.F.Verify(); err != nil {
			t.Fatalf("workload accepted a function Verify rejects: %v", err)
		}
		args := make([]int64, len(w.F.Params))
		_, _ = interp.Run(w.F, args, make(interp.Memory, 64), 10_000)
		_, _ = sim.RunSingle(sim.DefaultConfig(), w.F, args, make([]int64, 64), 10_000)
	})
}

// FuzzRequestBody posts arbitrary bytes as the body of POST /v1/schedule
// (batch false) or POST /v1/batch (batch true) through Server.Handler, on a
// server whose budgets are tiny enough that any cell finishes in
// milliseconds. pad appends spaces up to one byte over maxBody, which the
// fuzzer could not reach by mutation. The handler must never panic and
// must answer valid JSON: 413 to an over-size body, 400 "decoding request:"
// to a body encoding/json rejects, 400 to a decoded batch over maxBatch —
// and the requests counter must grow by exactly the number of requests the
// body decoded to.
func FuzzRequestBody(f *testing.F) {
	kernelReq := `{"workload":"ks","partitioner":"dswp","sim":true}`
	inlineReq, err := json.Marshal(Request{
		IR: "func sum(r1)\nentry:\n  r2 = const 0\n  r3 = const 1\n  jump loop\n" +
			"loop:\n  r2 = add r2, r1\n  r1 = sub r1, r3\n  br r1 latch, exit\n" +
			"latch:\n  jump loop\nexit:\n  ret r2\n",
		Args: []int64{5}, Partitioner: "gremio", Sim: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, false, []byte(kernelReq))
	f.Add(false, false, inlineReq)
	critReq, err := json.Marshal(selfLatchSum)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, false, critReq)
	f.Add(true, false, []byte(`{"requests":[`+kernelReq+`,`+string(inlineReq)+`,{}]}`))
	f.Add(false, false, []byte(kernelReq[:len(kernelReq)/2]))
	f.Add(true, false, []byte(`{"requests":[{"workload":"ks"`))
	f.Add(false, true, []byte(kernelReq))
	f.Add(true, false, []byte(`{"requests":[`+strings.Repeat(`{},`, maxBatch)+`{}]}`))

	s, err := New(Options{MaxBudget: budget.Budget{ProfileSteps: 20_000, MeasureSteps: 20_000, SimCycles: 50_000}})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, batch, pad bool, body []byte) {
		if pad && len(body) <= maxBody {
			body = append(body, bytes.Repeat([]byte{' '}, maxBody+1-len(body))...)
		}
		path, decoded := "/v1/schedule", 1
		var derr error
		if batch {
			var b BatchRequest
			path, derr = "/v1/batch", json.Unmarshal(body, &b)
			decoded = len(b.Requests)
		} else {
			derr = json.Unmarshal(body, &Request{})
		}
		before := s.scope.Counter("requests").Value()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		got := rec.Body.Bytes()
		if !json.Valid(got) {
			t.Fatalf("%s answered %d with invalid JSON: %q", path, rec.Code, got)
		}
		switch {
		case len(body) > maxBody:
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: %d-byte body answered %d, want 413: %s", path, len(body), rec.Code, got)
			}
			decoded = 0
		case derr != nil:
			var e errorBody
			if err := json.Unmarshal(got, &e); err != nil || rec.Code != http.StatusBadRequest ||
				!strings.HasPrefix(e.Error, "decoding request:") {
				t.Fatalf("%s: undecodable body (%v) answered %d: %s", path, derr, rec.Code, got)
			}
			decoded = 0
		case batch && decoded > maxBatch:
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: batch of %d answered %d, want 400: %s", path, decoded, rec.Code, got)
			}
			decoded = 0
		case batch && rec.Code != http.StatusOK:
			t.Fatalf("%s: batch of %d answered %d, want 200: %s", path, decoded, rec.Code, got)
		}
		if n := s.scope.Counter("requests").Value() - before; n != int64(decoded) {
			t.Fatalf("%s: requests counter grew by %d, want %d", path, n, decoded)
		}
	})
}
