package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/vfs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files (flight-recorder dump, baseline record)")

// TestTraceLifecycle: every request gets a trace ID — echoed in the
// X-Gmtserve-Trace header, in batch items, and (for errors) in the body
// — and its span tree is retrievable at GET /v1/trace/{id} while
// retained.
func TestTraceLifecycle(t *testing.T) {
	s := newServer(t, Options{Degrade: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := http.Post(ts.URL+"/v1/schedule", "application/json",
		strings.NewReader(`{"workload":"adpcmdec","partitioner":"dswp"}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	id := res.Header.Get("X-Gmtserve-Trace")
	if id == "" {
		t.Fatal("schedule response carries no X-Gmtserve-Trace header")
	}

	tr, err := http.Get(ts.URL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: %d: %s", id, tr.StatusCode, buf.Bytes())
	}
	var doc struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace body is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.TraceID != id {
		t.Errorf("trace body trace_id = %q, want %q", doc.TraceID, id)
	}
	names := map[string]bool{}
	for _, sp := range doc.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"request", "cache.lookup", "admission", "cache.recheck", "compute.comm", "cache.put"} {
		if !names[want] {
			t.Errorf("trace lacks span %q (spans: %v)", want, names)
		}
	}
	if doc.Spans[0].Attrs["status"] != float64(200) || doc.Spans[0].Attrs["source"] != "cold" {
		t.Errorf("root span attrs = %v", doc.Spans[0].Attrs)
	}

	// Unknown IDs 404 with a JSON error body (no trace_id of their own).
	tr, err = http.Get(ts.URL + "/v1/trace/no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", tr.StatusCode)
	}

	// Batch items carry per-request trace IDs, all distinct.
	br, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"requests":[{"workload":"adpcmdec","partitioner":"dswp"},{"workload":"nope"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchResponse
	if err := json.NewDecoder(br.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if len(batch.Responses) != 2 || batch.Responses[0].TraceID == "" || batch.Responses[1].TraceID == "" {
		t.Fatalf("batch items missing trace IDs: %+v", batch.Responses)
	}
	if batch.Responses[0].TraceID == batch.Responses[1].TraceID {
		t.Error("distinct batch items share a trace ID")
	}
	// The failed item's error body carries its trace ID inline.
	var eb errorBody
	if err := json.Unmarshal(batch.Responses[1].Body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.TraceID != batch.Responses[1].TraceID {
		t.Errorf("error body trace_id = %q, want %q", eb.TraceID, batch.Responses[1].TraceID)
	}

	if n := s.traces.Len(); n < 3 {
		t.Errorf("traces retained = %d, want >= 3", n)
	}
}

// TestGETEndpointContentTypes is the regression table over every GET
// endpoint's status code and Content-Type — including the Prometheus
// exposition, which must NOT be application/json.
func TestGETEndpointContentTypes(t *testing.T) {
	s := newServer(t, Options{Degrade: true})
	res := s.Do(context.Background(), &Request{Workload: "adpcmdec"})
	mustOK(t, res)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path   string
		status int
		ct     string
	}{
		{"/v1/workloads", http.StatusOK, "application/json"},
		{"/v1/partitioners", http.StatusOK, "application/json"},
		{"/v1/metrics", http.StatusOK, "application/json"},
		{"/v1/healthz", http.StatusOK, "application/json"},
		{"/v1/healthz?ready=1", http.StatusOK, "application/json"},
		{"/v1/trace/" + res.TraceID, http.StatusOK, "application/json"},
		{"/v1/trace/unknown", http.StatusNotFound, "application/json"},
		{"/metrics", http.StatusOK, obs.PromContentType},
	} {
		r, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(r)
		if r.StatusCode != tc.status {
			t.Errorf("GET %s: status %d, want %d", tc.path, r.StatusCode, tc.status)
		}
		if ct := r.Header.Get("Content-Type"); ct != tc.ct {
			t.Errorf("GET %s: Content-Type %q, want %q", tc.path, ct, tc.ct)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", tc.path)
		}
		// The Prometheus endpoint must satisfy the same parser the CI
		// smoke job applies to a live scrape.
		if tc.path == "/metrics" {
			fams := obstest.CheckProm(t, body)
			for _, want := range []string{"serve_requests", "serve_admission_queue_depth", "serve_admission_deadline_slack_ms"} {
				if fams[want] == nil {
					t.Errorf("/metrics lacks family %q", want)
				}
			}
		}
	}
}

func readAll(r *http.Response) ([]byte, error) {
	defer r.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// TestHealthTransitionScript drives the availability state machine
// through a scripted event sequence — breaker trips, recoveries, drain —
// and asserts the /v1/healthz?ready=1 status code, the serve.health.state
// gauge and the serve.health.transitions counter at every stop, including
// that draining is terminal (a later breaker close cannot resurrect
// readiness) and that a step that changes no state counts no transition.
func TestHealthTransitionScript(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, step := range []struct {
		name            string
		event           func()
		wantState       string
		wantReady       int
		wantTransitions int64
	}{
		{"initial", func() {}, "healthy", http.StatusOK, 0},
		{"breaker trips", func() { s.health.setBreaker(true) }, "degraded", http.StatusOK, 1},
		{"breaker closes", func() { s.health.setBreaker(false) }, "healthy", http.StatusOK, 2},
		{"breaker trips again", func() { s.health.setBreaker(true) }, "degraded", http.StatusOK, 3},
		{"drain while degraded", func() { s.BeginDrain() }, "draining", http.StatusServiceUnavailable, 4},
		{"breaker close cannot undrain", func() { s.health.setBreaker(false) }, "draining", http.StatusServiceUnavailable, 4},
		{"second drain is idempotent", func() { s.BeginDrain() }, "draining", http.StatusServiceUnavailable, 4},
	} {
		step.event()
		if g := State(s.Metrics().Gauge("serve.health.state").Value()); g.String() != step.wantState {
			t.Errorf("%s: serve.health.state = %v, want %s", step.name, g, step.wantState)
		}
		if n := counter(s, "serve.health.transitions"); n != step.wantTransitions {
			t.Errorf("%s: serve.health.transitions = %d, want %d", step.name, n, step.wantTransitions)
		}
		r, err := http.Get(ts.URL + "/v1/healthz?ready=1")
		if err != nil {
			t.Fatal(err)
		}
		var body healthzBody
		if derr := json.NewDecoder(r.Body).Decode(&body); derr != nil {
			t.Fatal(derr)
		}
		r.Body.Close()
		if r.StatusCode != step.wantReady || body.State != step.wantState || !body.Ok {
			t.Errorf("%s: readiness = %d state %q ok %v, want %d %q true",
				step.name, r.StatusCode, body.State, body.Ok, step.wantReady, step.wantState)
		}
		// Liveness stays 200 in every state.
		r, err = http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: liveness = %d, want 200", step.name, r.StatusCode)
		}
	}
}

// histogramState renders every histogram metric in the registry — the
// slice of the registry whose serialization must be byte-stable across
// worker-pool sizes for an identical serial admission sequence.
func histogramState(s *Server) string {
	var b strings.Builder
	for _, m := range s.Metrics().Snapshot() {
		if m.Type != "histogram" {
			continue
		}
		fmt.Fprintf(&b, "%s sum=%d count=%d buckets=%v\n", m.Name, m.Value, m.Count, m.Buckets)
	}
	return b.String()
}

// TestAdmissionHistogramsStableAcrossJobs: the admission-time queue-depth
// and deadline-slack distributions are observed per computation, and an
// identical request sequence must serialize them byte-identically at any
// -j — colds run serially here, and the concurrent batch that exercises
// the pool afterwards is all warm hits, which never enter admission.
func TestAdmissionHistogramsStableAcrossJobs(t *testing.T) {
	run := func(jobs int) (string, Stats) {
		s := newServer(t, Options{Degrade: true, Jobs: jobs})
		ctx := context.Background()
		for _, req := range []*Request{
			{Workload: "ks", DeadlineMS: 30_000},
			{Workload: "adpcmdec"},
		} {
			mustOK(t, s.Do(ctx, req))
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		r, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(
			`{"requests":[{"workload":"ks","deadline_ms":30000},{"workload":"adpcmdec"},{"workload":"ks","deadline_ms":30000},{"workload":"adpcmdec"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(r)
		var batch BatchResponse
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatal(err)
		}
		for i, item := range batch.Responses {
			if item.Status != http.StatusOK || item.Source != "warm" {
				t.Fatalf("jobs=%d batch item %d: status %d source %q, want 200 warm", jobs, i, item.Status, item.Source)
			}
		}
		return histogramState(s), s.StatsSnapshot()
	}

	h1, st1 := run(1)
	h4, _ := run(4)
	if h1 != h4 {
		t.Errorf("histogram serialization differs between jobs=1 and jobs=4:\n%s\nvs\n%s", h1, h4)
	}
	if !strings.Contains(h1, "serve.admission.queue_depth sum=0 count=2") {
		t.Errorf("queue-depth histogram missing the two serial admissions:\n%s", h1)
	}
	if !strings.Contains(h1, "serve.admission.deadline_slack_ms") {
		t.Errorf("deadline-slack histogram missing:\n%s", h1)
	}
	// One observation per computation: the warm batch added none.
	if st1.Compute != 2 {
		t.Fatalf("compute = %d, want 2", st1.Compute)
	}
}

// TestAccessLog: one structured JSON line per request, in order, with
// the request's trace ID, outcome, cache path, and logical times.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := newServer(t, Options{Degrade: true, AccessLog: &buf})
	ctx := context.Background()
	cold := s.Do(ctx, &Request{Workload: "adpcmdec", Partitioner: "dswp"})
	mustOK(t, cold)
	warm := s.Do(ctx, &Request{Workload: "adpcmdec", Partitioner: "dswp"})
	mustOK(t, warm)
	bad := s.Do(ctx, &Request{Workload: "nope"})
	if bad.Status != http.StatusBadRequest {
		t.Fatalf("status = %d", bad.Status)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var recs []accessLine
	for _, ln := range lines {
		var rec accessLine
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("access line is not valid JSON: %v\n%s", err, ln)
		}
		recs = append(recs, rec)
	}
	for i, want := range []struct {
		trace  string
		status int
		source string
		cache  string
	}{
		{cold.TraceID, 200, "cold", "miss"},
		{warm.TraceID, 200, "warm", "mem"},
		{bad.TraceID, 400, "error", "none"},
	} {
		got := recs[i]
		if got.TraceID != want.trace || got.Status != want.status || got.Source != want.source || got.Cache != want.cache {
			t.Errorf("line %d = %+v, want trace %s status %d source %s cache %s",
				i, got, want.trace, want.status, want.source, want.cache)
		}
		if got.End <= got.Start || got.Start <= 0 {
			t.Errorf("line %d: logical times [%d, %d] not increasing", i, got.Start, got.End)
		}
	}
	if recs[0].Workload != "adpcmdec" || recs[0].Partitioner != "dswp" || recs[0].Degraded != 0 {
		t.Errorf("cold line = %+v", recs[0])
	}
}

// eioSeedFiringSecond finds (deterministically) the smallest ReadEIO
// seed whose schedule spares the first read and fires on the second: the
// cache's open reads its log cleanly, and a scenario's opening cache
// lookup is guaranteed to hit the fault and retry.
func eioSeedFiringSecond(t *testing.T) int64 {
	t.Helper()
	probe := filepath.Join(t.TempDir(), "does-not-exist")
	for seed := int64(1); seed <= 64; seed++ {
		f := vfs.NewFaulty(vfs.Spec{Class: vfs.ReadEIO, Seed: seed})
		_, first := f.ReadFile(probe)
		_, second := f.ReadFile(probe)
		if !errors.Is(first, syscall.EIO) && errors.Is(second, syscall.EIO) {
			return seed
		}
	}
	t.Fatal("no ReadEIO seed <= 64 fires on the second read only")
	return 0
}

// faultScenario runs the acceptance scenario once on a fresh durable
// server over injected read faults: the request's key holds a record
// whose payload the disk damaged after the server opened, and a budget
// so tight the degradation chain exhausts, yielding a 5xx whose trace
// shows the cache retry, the corrupt record's quarantine and every
// degradation hop, and whose flight dump lands on disk.
type faultScenario struct {
	res     Result
	trace   []byte
	dump    []byte
	metrics []byte
	access  []byte
	reg     *obs.Registry
}

func runFaultScenario(t *testing.T, seed int64) faultScenario {
	t.Helper()
	flightDir := t.TempDir()
	cacheDir := t.TempDir()
	req := &Request{Workload: "ks", Budget: Budget{MeasureSteps: 1}}

	// Pre-seed a record under the request's key, through a server of the
	// same options so the key is the one the faulted server computes.
	seeder := newServer(t, Options{CacheDir: cacheDir, Degrade: true, Durable: true})
	w, err := req.workload()
	if err != nil {
		t.Fatal(err)
	}
	key := requestKey(w, "GREMIO", req.Sim, req.Budget.toBudget(seeder.maxBudget), seeder.defDegrade)
	if err := seeder.cache.Put(key, []byte(`{"seeded":"payload the disk will damage"}`)); err != nil {
		t.Fatal(err)
	}

	var access bytes.Buffer
	s := newServer(t, Options{
		CacheDir:  cacheDir,
		Degrade:   true,
		Durable:   true,
		FS:        vfs.NewFaulty(vfs.Spec{Class: vfs.ReadEIO, Seed: seed}),
		FlightDir: flightDir,
		AccessLog: &access,
	})
	// The open indexed the record; now the disk tampers with its payload.
	corruptCacheRecords(t, cacheDir)
	res := s.Do(context.Background(), req)

	trace, ok := s.traces.Get(res.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", res.TraceID)
	}
	dump, err := os.ReadFile(filepath.Join(flightDir, "flight-001-5xx.json"))
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	var mb bytes.Buffer
	if err := s.Metrics().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return faultScenario{
		res:     res,
		trace:   append([]byte(nil), trace...),
		dump:    dump,
		metrics: mb.Bytes(),
		access:  append([]byte(nil), access.Bytes()...),
		reg:     s.Metrics(),
	}
}

// TestFaultedRequestTelemetry is the acceptance scenario: on a durable
// server under injected disk read faults, a request whose cached record
// the disk damaged and whose budget exhausts the degradation chain
// yields a 5xx carrying its trace ID in the body; the retained span tree
// shows the cache retry, the corrupt record's quarantine and the
// degradation hops; the flight recorder snapshots to disk; and a second
// identical run reproduces every artifact byte for byte.
func TestFaultedRequestTelemetry(t *testing.T) {
	seed := eioSeedFiringSecond(t)
	a := runFaultScenario(t, seed)

	if a.res.Status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", a.res.Status, a.res.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(a.res.Body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.TraceID != a.res.TraceID || eb.TraceID == "" {
		t.Fatalf("error body trace_id = %q, want %q", eb.TraceID, a.res.TraceID)
	}
	// The chain exhausts either with the engine's sentinel message or, when
	// the single-threaded last resort is the one that runs out of budget,
	// with that fallback's own error.
	if !strings.Contains(eb.Error, "degradation chain exhausted") &&
		!strings.Contains(eb.Error, "single-threaded fallback") {
		t.Fatalf("error = %q, want an exhausted degradation chain", eb.Error)
	}

	var doc struct {
		Spans []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(a.trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, a.trace)
	}
	degrades := 0
	var lookup map[string]any
	for _, sp := range doc.Spans {
		if sp.Name == "degrade" {
			degrades++
		}
		if sp.Name == "cache.lookup" {
			lookup = sp.Attrs
		}
	}
	// gremio fails, dswp fails, single-threaded fails: two hops recorded
	// before the chain exhausts.
	if degrades < 2 {
		t.Errorf("trace shows %d degradation hops, want >= 2:\n%s", degrades, a.trace)
	}
	for _, ev := range []string{"retries", "corrupt", "quarantined"} {
		if v, _ := lookup[ev].(float64); v < 1 {
			t.Errorf("cache.lookup span shows %v %s, want >= 1:\n%s", lookup[ev], ev, a.trace)
		}
	}

	if !json.Valid(a.dump) {
		t.Fatalf("flight dump is not valid JSON:\n%s", a.dump)
	}
	if !bytes.Contains(a.dump, []byte(a.res.TraceID)) {
		t.Error("flight dump does not contain the failing request's trace")
	}
	dumps, dumpErrors := a.reg.Counter("serve.flight.dumps").Value(), a.reg.Counter("serve.flight.dump_errors").Value()
	if dumps != 1 || dumpErrors != 0 {
		t.Errorf("flight.dumps = %d, dump_errors = %d, want 1 / 0", dumps, dumpErrors)
	}
	if n := a.reg.Counter("serve.cache.retry").Value(); n < 1 {
		t.Errorf("cache.retry = %d, want >= 1", n)
	}
	if n := a.reg.Counter("serve.errors").Value(); n != 1 {
		t.Errorf("errors = %d, want the one 500", n)
	}

	// Determinism: a second identical run reproduces every artifact.
	b := runFaultScenario(t, seed)
	for _, art := range []struct {
		name string
		x, y []byte
	}{
		{"response body", a.res.Body, b.res.Body},
		{"trace", a.trace, b.trace},
		{"flight dump", a.dump, b.dump},
		{"metrics", a.metrics, b.metrics},
		{"access log", a.access, b.access},
	} {
		if !bytes.Equal(art.x, art.y) {
			t.Errorf("%s differs between identical runs:\n%s\nvs\n%s", art.name, art.x, art.y)
		}
	}
	if a.res.TraceID != b.res.TraceID {
		t.Errorf("trace IDs differ between identical runs: %s vs %s", a.res.TraceID, b.res.TraceID)
	}
}

// TestFlightDumpGolden pins the exact bytes of the fault scenario's
// flight-recorder dump: logical clocks and seeded faults make it fully
// deterministic, so any diff means the recorded request lifecycle
// changed. Regenerate deliberately with:
//
//	go test ./internal/serve -run FlightDumpGolden -update
func TestFlightDumpGolden(t *testing.T) {
	seed := eioSeedFiringSecond(t)
	got := runFaultScenario(t, seed).dump
	const path = "testdata/flight_dump.golden.json"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run FlightDumpGolden -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("flight dump differs from golden (%d bytes vs %d); if intended, rerun with -update\ngot:\n%s",
			len(got), len(want), got)
	}
}

// TestFlightDumpOnDrainAndBreaker: BeginDrain and a breaker trip each
// snapshot the recorder; with no flight dir configured, neither writes
// anything and nothing fails.
func TestFlightDumpOnDrainAndBreaker(t *testing.T) {
	flightDir := t.TempDir()
	s := newServer(t, Options{Degrade: true, FlightDir: flightDir})
	mustOK(t, s.Do(context.Background(), &Request{Workload: "adpcmdec"}))
	s.BeginDrain()
	dump, err := os.ReadFile(filepath.Join(flightDir, "flight-001-drain.json"))
	if err != nil {
		t.Fatalf("drain did not dump: %v", err)
	}
	if !json.Valid(dump) || !bytes.Contains(dump, []byte(`"reason": "drain"`)) {
		t.Fatalf("drain dump malformed:\n%s", dump)
	}
	if n := counter(s, "serve.flight.dumps"); n != 1 {
		t.Errorf("flight.dumps = %d, want 1", n)
	}

	// One ring serves lookups and dumps: after 40 requests a dump holds
	// exactly the newest 32, oldest first, while the first still resolves
	// by ID.
	flightDir40 := t.TempDir()
	s40 := newServer(t, Options{Degrade: true, FlightDir: flightDir40})
	var ids []string
	for i := 0; i < 40; i++ {
		res := s40.Do(context.Background(), &Request{Workload: "adpcmdec"})
		mustOK(t, res)
		ids = append(ids, res.TraceID)
	}
	s40.BeginDrain()
	dump, err = os.ReadFile(filepath.Join(flightDir40, "flight-001-drain.json"))
	if err != nil {
		t.Fatalf("drain did not dump: %v", err)
	}
	var doc struct {
		Recorded, Retained int
		Traces             []struct {
			TraceID string `json:"trace_id"`
		}
	}
	if err := json.Unmarshal(dump, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Recorded != 40 || doc.Retained != 32 || len(doc.Traces) != 32 {
		t.Fatalf("dump after 40 requests: recorded %d, retained %d, %d traces; want 40, 32, 32",
			doc.Recorded, doc.Retained, len(doc.Traces))
	}
	for i, tr := range doc.Traces {
		if tr.TraceID != ids[8+i] {
			t.Errorf("dump trace %d is %s, want request %d's %s", i, tr.TraceID, 9+i, ids[8+i])
		}
	}
	if _, ok := s40.traces.Get(ids[0]); !ok {
		t.Error("trace 1 no longer resolves by ID")
	}
	if n := s40.traces.Len(); n != 40 {
		t.Errorf("traces retained = %d, want 40", n)
	}

	// Breaker trip dumps too (scripted via the health hook's path: a
	// tripping cache calls OnDiskState(true)). Exactly one scripted write
	// fault: the cache.put fails and trips the breaker, and the dump write
	// that follows goes through cleanly.
	flightDir2 := t.TempDir()
	fs := &failingFS{failWrites: 1}
	s2 := newServer(t, Options{
		CacheDir: t.TempDir(), Degrade: true, FlightDir: flightDir2,
		FS: fs, DiskRetries: -1, BreakerThreshold: 1,
	})
	mustOK(t, s2.Do(context.Background(), &Request{Workload: "adpcmdec"}))
	entries, err := os.ReadDir(flightDir2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if strings.Contains(e.Name(), "breaker") {
			found = true
		}
	}
	if !found {
		t.Errorf("breaker trip did not dump (dir: %v)", entries)
	}

	// No flight dir: dumping is disabled, nothing breaks.
	s3 := newServer(t, Options{})
	s3.BeginDrain()
	if dumps, dumpErrors := counter(s3, "serve.flight.dumps"), counter(s3, "serve.flight.dump_errors"); dumps != 0 || dumpErrors != 0 {
		t.Errorf("dir-less dump counted: flight.dumps %d, dump_errors %d", dumps, dumpErrors)
	}
}
