// Package serve is the scheduling-as-a-service layer behind cmd/gmtserve:
// an HTTP/JSON daemon that accepts compile/schedule requests for IR
// functions, fans batches out over the internal/par worker pool, and
// backs every response with the persistent content-addressed artifact
// cache in internal/cache.
//
// The serving contract is byte determinism: a response is computed once,
// serialized once, and the exact bytes are cached — so a request served
// cold, warm from the memory layer, warm from disk after a restart, or
// merged into a concurrent identical request's flight (singleflight)
// returns identical bytes. The X-Gmtserve-Source header says which path
// served it without perturbing the body.
//
// Identical in-flight requests are deduplicated (cache.Group), admission
// is bounded (queue-full requests get 503 rather than unbounded pileup),
// per-request budgets are clamped to server caps, and failed cells walk
// the same graceful-degradation chain as the experiment engine. Every
// counter — requests, computations, cache hits, misses, evictions and
// faults, singleflight merges, admission — lives in one obs.Registry,
// encoded as JSON at GET /v1/metrics and as Prometheus text at GET
// /metrics.
//
// Response bytes and a workload's baseline (its reference run and
// single-threaded cycles, see baseline.go) are all that one request shares
// with another, both through the cache. Each computation builds its own
// exp.Engine; no analysis artifact outlives the request it was built for.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/vfs"
	"repro/internal/workloads"
)

// maxBody bounds request bodies; inline IR plus a memory image fits
// comfortably, unbounded bodies do not.
const maxBody = 8 << 20

// maxBatch bounds the requests of one POST /v1/batch: each allocates a span
// tree, a trace-ring slot and a BatchItem, and maxBody alone admits
// millions of empty ones.
const maxBatch = 1024

// errQueueFull is returned by the admission queue; it maps to 503.
var errQueueFull = errors.New("server busy: admission queue is full, retry later")

// Options configures a Server.
type Options struct {
	// CacheDir roots the persistent artifact cache; "" keeps the cache
	// memory-only (no restart warmth).
	CacheDir string
	// MemEntries / DiskEntries bound the two cache layers (see
	// cache.Options).
	MemEntries  int
	DiskEntries int
	// Jobs sizes the worker pool batch requests fan out over; <= 0 means
	// GOMAXPROCS.
	Jobs int
	// Queue bounds concurrent computations (executing + waiting); further
	// cache-missing requests are rejected with 503. <= 0 means 64. Cache
	// hits and singleflight merges never occupy a slot.
	Queue int
	// MaxBudget caps per-request budgets field-by-field; zero fields are
	// uncapped.
	MaxBudget budget.Budget
	// Degrade is the graceful-degradation default for requests that do
	// not set their own.
	Degrade bool
	// DefaultDeadline bounds requests that set no deadline of their own;
	// 0 means none.
	DefaultDeadline time.Duration
	// MaxDeadline caps per-request deadlines (requested or default);
	// 0 means uncapped. Unlike budgets, deadlines never enter the cache
	// key — they change whether a response arrives, never its bytes.
	MaxDeadline time.Duration
	// Durable fsyncs the cache log after each appended record, so a
	// completed Put survives a machine crash (see cache.Options.Durable).
	Durable bool
	// DiskRetries bounds transient-disk-fault retries per cache
	// operation; 0 means the cache default (2), < 0 disables.
	DiskRetries int
	// BreakerThreshold trips the cache's disk layer to memory-only mode
	// after this many consecutive disk faults; 0 means the cache default
	// (8), < 0 disables the breaker.
	BreakerThreshold int
	// BreakerProbe, while tripped, probes the disk every Nth operation;
	// 0 means the cache default (16).
	BreakerProbe int
	// FS overrides the cache's filesystem (test hook for fault
	// injection); nil means the host filesystem.
	FS vfs.FS
	// TraceRetain bounds how many completed request traces stay
	// queryable via GET /v1/trace/{id}; <= 0 means 256. The newest 32 of
	// them are what a flight dump snapshots to disk on 5xx, breaker trip,
	// or drain.
	TraceRetain int
	// FlightDir is where flight dumps are written (atomically, through
	// the server's vfs); "" disables dumping.
	FlightDir string
	// AccessLog, when non-nil, receives one structured JSON line per
	// served request: trace ID, outcome, cache path, degradation count,
	// and logical durations.
	AccessLog io.Writer
}

// Server implements the scheduling service. Create with New, mount
// Handler on an http.Server.
type Server struct {
	jobs        int
	maxBudget   budget.Budget
	defDegrade  bool
	defDeadline time.Duration
	maxDeadline time.Duration

	cache  *cache.Cache
	sf     cache.Group
	queue  chan struct{}
	health *health

	reg   *obs.Registry
	scope *obs.Scope

	// Telemetry: per-request span trees timed by clock, a logical
	// per-server counter that ticks once per trace event, which keeps
	// serial traces, dumps, and histograms byte-deterministic. They are
	// retained in traces for GET /v1/trace/{id} and for postmortem dumps
	// under flightDir.
	clock     func() int64
	tick      atomic.Int64
	reqSeq    atomic.Int64
	dumpSeq   atomic.Int64
	traces    *obs.FlightRecorder
	flightDir string
	durable   bool
	fs        vfs.FS
	access    *accessLogger
}

// New builds a server and opens (creating if needed) its cache
// directory; opening runs the cache's crash-recovery scan, so a server
// restarted over a dirty directory comes up clean.
func New(o Options) (*Server, error) {
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 64
	}
	reg := obs.NewRegistry()
	if o.TraceRetain <= 0 {
		o.TraceRetain = 256
	}
	fsys := o.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	h := newHealth(reg.Scope("serve"))
	s := &Server{
		jobs:        o.Jobs,
		maxBudget:   o.MaxBudget,
		defDegrade:  o.Degrade,
		defDeadline: o.DefaultDeadline,
		maxDeadline: o.MaxDeadline,
		queue:       make(chan struct{}, o.Queue),
		health:      h,
		reg:         reg,
		scope:       reg.Scope("serve"),
		traces:      obs.NewFlightRecorder(o.TraceRetain),
		flightDir:   o.FlightDir,
		durable:     o.Durable,
		fs:          fsys,
		access:      newAccessLogger(o.AccessLog),
	}
	s.clock = func() int64 { return s.tick.Add(1) }
	c, err := cache.New(cache.Options{
		Dir:              o.CacheDir,
		MemEntries:       o.MemEntries,
		DiskEntries:      o.DiskEntries,
		FS:               o.FS,
		Durable:          o.Durable,
		Retries:          o.DiskRetries,
		BreakerThreshold: o.BreakerThreshold,
		BreakerProbe:     o.BreakerProbe,
		OnDiskState: func(open bool) {
			h.setBreaker(open)
			if open {
				// A tripping breaker is exactly the moment a postmortem
				// wants the recent request history. The dump goes through
				// the server's own vfs, never back into the cache.
				s.dumpFlight("breaker")
			}
		},
		Metrics: reg.Scope("serve.cache"),
	})
	if err != nil {
		return nil, err
	}
	s.cache = c
	return s, nil
}

// BeginDrain moves the server into the terminal draining state:
// readiness turns false so load balancers stop routing here, while
// in-flight and already-routed requests still complete. Call it before
// http.Server.Shutdown. The flight recorder snapshots to disk so the
// final request history survives the shutdown.
func (s *Server) BeginDrain() {
	s.health.setDraining()
	s.dumpFlight("drain")
}

// Health returns the current availability state.
func (s *Server) Health() State { return s.health.State() }

// Metrics returns the server's registry, the one account of its
// counters (for -metrics artifacts and tests).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Result is one served response: a status, the path that served it, and
// the exact body bytes.
type Result struct {
	Status int
	// Source is which path produced the bytes: "cold" (computed by this
	// request), "mem"/"disk" (cache layers), "merged" (joined another
	// request's flight), or "error".
	Source string
	Body   []byte
	// TraceID names the request's span tree, retrievable while retained
	// via GET /v1/trace/{id}. Cached success bodies stay byte-identical
	// across requests, so the ID travels in the X-Gmtserve-Trace header
	// and — for never-cached error bodies — a trace_id body field.
	TraceID string
}

func errResult(status int, err error, traceID string) Result {
	body, _ := json.Marshal(errorBody{Error: err.Error(), TraceID: traceID})
	return Result{Status: status, Source: "error", Body: body, TraceID: traceID}
}

// Do serves one request through the full path: validate, deadline, key,
// cache, singleflight, bounded compute. It never panics the caller;
// every failure is a Result with a JSON error body. The full lifecycle
// is recorded as a span tree retained for GET /v1/trace/{id} and the
// flight recorder.
func (s *Server) Do(ctx context.Context, req *Request) Result {
	seq := s.reqSeq.Add(1)
	id := obs.TraceID("req", strconv.FormatInt(seq, 10), req.Workload, req.Name, req.Partitioner)
	tree := obs.NewSpanTree(id, s.clock)
	root := tree.Root("request")
	res := s.serveTraced(ctx, req, root, id)
	res.TraceID = id
	root.SetInt("status", int64(res.Status))
	root.SetStr("source", res.Source)
	root.Finish()
	s.finishTrace(tree, root, req, res)
	return res
}

// serveTraced is the request path proper, recording spans under root.
func (s *Server) serveTraced(ctx context.Context, req *Request, root *obs.Span, id string) Result {
	s.scope.Counter("requests").Inc()

	d := s.deadlineFor(req)
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	w, err := req.workload()
	if err != nil {
		return errResult(http.StatusBadRequest, err, id)
	}
	root.SetStr("workload", w.Name)
	partName := req.Partitioner
	if partName == "" {
		partName = "gremio"
	}
	p, err := cli.ResolvePartitioner(partName)
	if err != nil {
		return errResult(http.StatusBadRequest, err, id)
	}
	root.SetStr("partitioner", p.Name())
	b := req.Budget.toBudget(s.maxBudget)
	degrade := s.defDegrade
	if req.Degrade != nil {
		degrade = *req.Degrade
	}
	key := requestKey(w, p.Name(), req.Sim, b, degrade)

	lookup := root.Child("cache.lookup")
	var lev cache.OpEvents
	body, ok := s.cache.GetEv(key, &lev)
	spanCacheEvents(lookup, &lev)
	lookup.Finish()
	root.SetStr("cache", lev.Layer)
	if ok {
		// Which layer served it shows up in the hit.mem/hit.disk
		// counters; the header only distinguishes warm from cold/merged.
		return Result{Status: http.StatusOK, Source: "warm", Body: body}
	}

	body, err, merged := s.sf.Do(key, func() ([]byte, error) {
		adm := root.Child("admission")
		depth := int64(len(s.queue))
		adm.SetInt("depth", depth).SetInt("capacity", int64(cap(s.queue)))
		// Admission-time distributions, not just high-water marks: the
		// queue depth seen by each arriving computation and the slack its
		// deadline allows (the resolved deadline is deterministic; the
		// remaining wall time is not).
		s.scope.Histogram("admission.queue_depth").Observe(depth)
		s.scope.Histogram("admission.deadline_slack_ms").Observe(d.Milliseconds())
		select {
		case s.queue <- struct{}{}:
		default:
			s.scope.Counter("queue.rejected").Inc()
			adm.SetStr("outcome", "rejected")
			adm.Finish()
			return nil, errQueueFull
		}
		adm.SetStr("outcome", "admitted")
		adm.Finish()
		defer func() { <-s.queue }()
		// A flight that completed between our cache probe and joining the
		// group has already put its bytes; serve those rather than
		// recomputing.
		recheck := root.Child("cache.recheck")
		var rev cache.OpEvents
		body, ok := s.cache.GetEv(key, &rev)
		spanCacheEvents(recheck, &rev)
		recheck.Finish()
		if ok {
			return body, nil
		}
		return s.compute(ctx, w, p, req.Sim, b, degrade, key, root)
	})
	switch {
	case err == nil && merged:
		s.scope.Counter("singleflight.merged").Inc()
		return Result{Status: http.StatusOK, Source: "merged", Body: body}
	case err == nil:
		return Result{Status: http.StatusOK, Source: "cold", Body: body}
	case errors.Is(err, errQueueFull):
		return errResult(http.StatusServiceUnavailable, err, id)
	case errors.Is(err, context.DeadlineExceeded):
		s.scope.Counter("deadline.exceeded").Inc()
		return errResult(http.StatusGatewayTimeout, err, id)
	case ctx.Err() != nil:
		return errResult(http.StatusServiceUnavailable, err, id)
	default:
		s.scope.Counter("errors").Inc()
		return errResult(http.StatusInternalServerError, err, id)
	}
}

// deadlineFor resolves a request's effective deadline: the requested
// value, else the server default, clamped to the server cap. The result
// never enters the cache key — a deadline changes whether a response
// arrives in time, never which bytes it holds.
func (s *Server) deadlineFor(req *Request) time.Duration {
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = s.defDeadline
	}
	if s.maxDeadline > 0 && (d <= 0 || d > s.maxDeadline) {
		d = s.maxDeadline
	}
	return d
}

// compute runs the scheduling pipeline once and caches the exact response
// bytes. The serve.compute counter is the "did the pipeline actually
// run?" signal tests and the smoke job assert on.
//
// The engine lives for this one computation, sharing the pipeline between
// the two cells below: its slots would keep a cancelled build for good.
// What outlives it is the workload's baseline, which holds no pointer: it
// is looked up before the cells run and seeds the engine, and a
// computation that made it itself stores it after its response.
func (s *Server) compute(ctx context.Context, w *workloads.Workload, p partition.Partitioner,
	runSim bool, b budget.Budget, degrade bool, key string, root *obs.Span) ([]byte, error) {
	s.scope.Counter("compute").Inc()
	eng := exp.NewEngine(exp.EngineOptions{Jobs: 1, Budget: b, Degrade: degrade})
	defer s.countBaselineRuns(eng)
	bkey := baselineKey(w, b)
	seeded := s.seedBaseline(eng, w, bkey, root)

	resp := Response{
		Schema:      SchemaVersion,
		Workload:    w.Name,
		Partitioner: p.Name(),
		Fingerprint: w.Fingerprint(),
	}
	csp := root.Child("compute.comm")
	comm, err := eng.CommCellSpan(ctx, w, p, csp)
	csp.Finish()
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", w.Name, p.Name(), err)
	}
	resp.Comm = &Comm{
		Naive:    comm.Naive,
		Coco:     comm.Coco,
		NaivePct: commPct(comm.Naive),
		CocoPct:  commPct(comm.Coco),
		Fallback: comm.Fallback,
	}
	if runSim {
		ssp := root.Child("compute.sim")
		row, err := eng.SpeedupCellSpan(ctx, machine, w, p, ssp)
		ssp.Finish()
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, p.Name(), err)
		}
		cy := &Cycles{
			SingleThreaded: row.STCycles,
			Naive:          row.NaiveCycles,
			Coco:           row.CocoCycles,
			Fallback:       row.Fallback,
		}
		if row.CocoCycles > 0 {
			cy.Speedup = float64(row.STCycles) / float64(row.CocoCycles)
		}
		resp.Cycles = cy
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		return nil, err
	}
	psp := root.Child("cache.put")
	var pev cache.OpEvents
	err = s.cache.PutEv(key, body, &pev)
	if err != nil {
		// A failed disk write must not fail the request: the bytes are
		// computed and the memory layer has them.
		s.scope.Counter("cache.put_errors").Inc()
		psp.SetStr("outcome", "error")
	}
	spanCacheEvents(psp, &pev)
	psp.Finish()
	// A disk that just refused the response is not asked for a second
	// record: the baseline is worth less, and a retry would be paid twice.
	if runSim && !seeded && err == nil {
		s.storeBaseline(ctx, eng, w, bkey, root)
	}
	return body, nil
}

func commPct(c interp.CommStats) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(c.Comm()) / float64(t)
}

// Handler returns the HTTP API:
//
//	POST /v1/schedule     one request  -> one response
//	POST /v1/batch        {"requests":[...]} -> {"responses":[...]} in order
//	GET  /v1/workloads    built-in workload names
//	GET  /v1/partitioners partitioner names
//	GET  /v1/metrics      every counter of the server's registry (JSON)
//	GET  /v1/trace/{id}   a retained request's span tree
//	GET  /v1/healthz      liveness; add ?ready=1 for readiness (503 while draining)
//	GET  /metrics         Prometheus text exposition of the same registry
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"workloads": workloads.Names()})
	})
	mux.HandleFunc("GET /v1/partitioners", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"partitioners": cli.PartitionerNames()})
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.reg.WriteJSON(w)
	})
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		s.reg.WriteProm(w)
	})
	return mux
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !readJSON(w, r, &req) {
		return
	}
	res := s.Do(r.Context(), &req)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Gmtserve-Source", res.Source)
	w.Header().Set("X-Gmtserve-Trace", res.TraceID)
	w.WriteHeader(res.Status)
	w.Write(res.Body)
}

// handleTrace serves a retained request trace by ID. Traces are kept in
// a bounded ring (Options.TraceRetain), so an old enough trace is gone
// — 404, not an error.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("trace %q is not retained", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	w.Write([]byte("\n"))
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchItem is one in-order element of a batch response. Body carries the
// exact bytes the request would have received from /v1/schedule.
type BatchItem struct {
	Status  int             `json:"status"`
	Source  string          `json:"source"`
	TraceID string          `json:"trace_id"`
	Body    json.RawMessage `json:"body"`
}

// BatchResponse is the body of POST /v1/batch.
type BatchResponse struct {
	Responses []BatchItem `json:"responses"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if !readJSON(w, r, &batch) {
		return
	}
	if n := len(batch.Requests); n > maxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d requests exceeds the limit of %d", n, maxBatch))
		return
	}
	items := make([]BatchItem, len(batch.Requests))
	// Responses land in preallocated index-addressed slots, so the order
	// is the request order at any Jobs setting. Per-item failures are
	// item statuses, not batch failures; par.Run only propagates context
	// cancellation from Do (which never returns an error).
	par.Run(r.Context(), s.jobs, len(batch.Requests), func(i int) error {
		res := s.Do(r.Context(), &batch.Requests[i])
		items[i] = BatchItem{Status: res.Status, Source: res.Source, TraceID: res.TraceID, Body: res.Body}
		return nil
	})
	writeJSON(w, http.StatusOK, BatchResponse{Responses: items})
}

// Stats is a view of the registry: the counters the benchmark reads.
type Stats struct {
	Requests           int64
	Compute            int64
	Errors             int64
	CacheHitMem        int64
	CacheHitDisk       int64
	CacheMiss          int64
	CacheEvictMem      int64
	SingleflightMerged int64
	QueueRejected      int64
}

// StatsSnapshot reads the current counters.
func (s *Server) StatsSnapshot() Stats {
	cs := s.reg.Scope("serve.cache")
	return Stats{
		Requests:           s.scope.Counter("requests").Value(),
		Compute:            s.scope.Counter("compute").Value(),
		Errors:             s.scope.Counter("errors").Value(),
		CacheHitMem:        cs.Counter("hit.mem").Value(),
		CacheHitDisk:       cs.Counter("hit.disk").Value(),
		CacheMiss:          cs.Counter("miss").Value(),
		CacheEvictMem:      cs.Counter("evict.mem").Value(),
		SingleflightMerged: s.scope.Counter("singleflight.merged").Value(),
		QueueRejected:      s.scope.Counter("queue.rejected").Value(),
	}
}

// healthzBody is the /v1/healthz response.
type healthzBody struct {
	// Ok is liveness: the process is up and answering. It stays true in
	// every state — even draining, where the process is alive on purpose
	// to finish in-flight work.
	Ok bool `json:"ok"`
	// State is the availability state machine's position:
	// healthy/degraded/draining.
	State string `json:"state"`
	// Ready is readiness: should a balancer route new work here. False
	// only while draining; degraded still serves (fail-open).
	Ready bool `json:"ready"`
}

// handleHealthz separates liveness from readiness: the plain endpoint is
// a liveness probe (always 200 while the process runs), and ?ready=1
// makes it a readiness probe (503 once draining, so balancers pull the
// instance while in-flight requests complete).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := s.health.State()
	body := healthzBody{Ok: true, State: state.String(), Ready: state != Draining}
	status := http.StatusOK
	if r.URL.Query().Get("ready") != "" && !body.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// maxBodyPrealloc bounds the buffer readJSON allocates for a body before
// any of it arrives. A declared Content-Length up to this sizes the buffer
// once; a longer body grows it as its bytes come in, so a header that
// declares more than it sends costs the server no more than this.
const maxBodyPrealloc = 64 << 10

// readJSON decodes a bounded request body, replying 413 to a body over
// maxBody and 400 to bad JSON.
func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	// MinRead past the declared length leaves ReadFrom room to see the end
	// of the body without growing the buffer.
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), maxBodyPrealloc)) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), into)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decoding request: %v", err))
		return false
	}
	return true
}

// writeError answers with the JSON error body Do's failures carry.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
