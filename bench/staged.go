package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/coco"
	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The staged path is the
// only writer: the program under test carries no wall clock yet, so every
// layer is timed from outside, around the call into its public function.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newRequest() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

func (t *tracer) begin(req, parent int, name string) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id-1].End - t.spans[id-1].Start)
}

// cellStatic is what the staged path sees that a response does not carry:
// the static size of both generated programs.
type cellStatic struct {
	NaiveInstrs int64 `json:"naive_instrs"`
	CocoInstrs  int64 `json:"coco_instrs"`
	NaiveQueues int   `json:"naive_queues"`
	CocoQueues  int   `json:"coco_queues"`
}

// stagedEngine does what exp.Engine does for one cell, one public call per
// layer and a span around each, with the engine's three memo tables (an
// artifact per workload, a pipeline per (workload, partitioner), a
// single-threaded cycle count per workload) so it does the same work.
type stagedEngine struct {
	t      *tracer
	arts   map[string]*exp.Artifact
	pipes  map[string]*exp.Pipeline
	static map[string]cellStatic
	st     map[string]int64

	profileRuns, pdgBuilds int64
	steps, cycles          int64 // dynamic work executed, for the rate metrics
	arcs, instrs           int64 // static work produced
}

func newStagedEngine(t *tracer) *stagedEngine {
	return &stagedEngine{t: t, arts: map[string]*exp.Artifact{}, pipes: map[string]*exp.Pipeline{},
		static: map[string]cellStatic{}, st: map[string]int64{}}
}

func progInstrs(p *mtcg.Program) int64 {
	var n int64
	for _, f := range p.Threads {
		n += int64(f.NumInstrs())
	}
	return n
}

// pipeline mirrors Engine.Pipeline → buildArtifact + buildFromArtifact.
func (e *stagedEngine) pipeline(req, parent int, w *workloads.Workload, part partition.Partitioner) (*exp.Pipeline, error) {
	fp := w.Fingerprint()
	key := fp + "/" + part.Name()
	if p := e.pipes[key]; p != nil {
		return p, nil
	}
	b := budget.Experiments()
	art := e.arts[fp]
	if art == nil {
		id := e.t.begin(req, parent, "interp.profile")
		train := w.Train()
		prof, err := interp.RunCtx(context.Background(), w.F, train.Args, train.Mem, b.ProfileSteps)
		e.t.end(id)
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", w.Name, err)
		}
		e.profileRuns++
		e.steps += prof.Steps

		id = e.t.begin(req, parent, "pdg.build")
		g := pdg.Build(w.F, w.Objects)
		e.t.end(id)
		e.pdgBuilds++
		e.arcs += int64(g.NumArcs())
		art = &exp.Artifact{Profile: prof.Profile, Graph: g}
		e.arts[fp] = art
	}

	id := e.t.begin(req, parent, "partition."+strings.ToLower(part.Name()))
	assign, err := part.Partition(w.F, art.Graph, art.Profile, 2)
	e.t.end(id)
	if err != nil {
		return nil, fmt.Errorf("partitioning %s with %s: %w", w.Name, part.Name(), err)
	}

	id = e.t.begin(req, parent, "mtcg.naive")
	naive, err := mtcg.Generate(mtcg.NaivePlan(w.F, art.Graph, assign, 2))
	e.t.end(id)
	if err != nil {
		return nil, fmt.Errorf("naive MTCG for %s/%s: %w", w.Name, part.Name(), err)
	}
	id = e.t.begin(req, parent, "queue.alloc")
	queue.Allocate(naive)
	e.t.end(id)

	id = e.t.begin(req, parent, "coco.plan")
	plan, err := coco.Plan(w.F, art.Graph, assign, 2, art.Profile, coco.DefaultOptions())
	e.t.end(id)
	if err != nil {
		return nil, fmt.Errorf("COCO for %s/%s: %w", w.Name, part.Name(), err)
	}
	id = e.t.begin(req, parent, "mtcg.coco")
	opt, err := mtcg.Generate(plan)
	e.t.end(id)
	if err != nil {
		return nil, fmt.Errorf("optimized MTCG for %s/%s: %w", w.Name, part.Name(), err)
	}
	id = e.t.begin(req, parent, "queue.alloc")
	queue.Allocate(opt)
	e.t.end(id)

	p := &exp.Pipeline{W: w, Part: part, Assign: assign, Graph: art.Graph, Profile: art.Profile,
		Naive: naive, Coco: opt, QueueCap: partition.QueueCapFor(part)}
	e.pipes[key] = p
	cs := cellStatic{NaiveInstrs: progInstrs(naive), CocoInstrs: progInstrs(opt),
		NaiveQueues: naive.NumQueues, CocoQueues: opt.NumQueues}
	e.static[key] = cs
	e.instrs += cs.NaiveInstrs + cs.CocoInstrs
	return p, nil
}

// comm mirrors Engine.CommCell without the degradation chain (the
// benchmark's servers and engines run with Degrade off).
func (e *stagedEngine) comm(req, parent int, w *workloads.Workload, part partition.Partitioner) (naive, opt interp.CommStats, err error) {
	p, err := e.pipeline(req, parent, w, part)
	if err != nil {
		return naive, opt, err
	}
	for _, m := range []struct {
		prog *mtcg.Program
		into *interp.CommStats
	}{{p.Naive, &naive}, {p.Coco, &opt}} {
		id := e.t.begin(req, parent, "interp.mt")
		*m.into, err = p.MeasureComm(m.prog)
		e.t.end(id)
		if err != nil {
			return naive, opt, err
		}
		e.steps += m.into.Total()
	}
	return naive, opt, nil
}

// cycles mirrors Engine.SpeedupCell.
func (e *stagedEngine) simulate(req, parent int, w *workloads.Workload, part partition.Partitioner) (st, naive, opt int64, err error) {
	cfg := sim.DefaultConfig()
	fp := w.Fingerprint()
	st, ok := e.st[fp]
	if !ok {
		id := e.t.begin(req, parent, "sim.st")
		st, err = exp.SingleThreadedCycles(cfg, w)
		e.t.end(id)
		if err != nil {
			return 0, 0, 0, err
		}
		e.st[fp] = st
		e.cycles += st
	}
	p, err := e.pipeline(req, parent, w, part)
	if err != nil {
		return 0, 0, 0, err
	}
	id := e.t.begin(req, parent, "sim.naive")
	naive, err = p.MeasureCycles(p.Machine(cfg), p.Naive)
	e.t.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	id = e.t.begin(req, parent, "sim.coco")
	opt, err = p.MeasureCycles(p.Machine(cfg), p.Coco)
	e.t.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	e.cycles += naive + opt
	return st, naive, opt, nil
}

// stagedServer does what serve.Server.Do does for a 200 reply, layer by
// layer: decode, resolve or parse, fingerprint, key, cache lookup, and on
// a miss the engine cells, marshal and cache put. It owns a cache instance
// of its own, and an engine shared by named workloads as the server's is.
type stagedServer struct {
	t      *tracer
	cache  *cache.Cache
	engine *stagedEngine
	// every transient inline engine is folded in here when its request
	// ends, so the work counters cover the whole replay
	done []*stagedEngine
}

func newStagedServer(t *tracer, dir string, memEntries int) (*stagedServer, error) {
	c, err := cache.New(cache.Options{Dir: dir, MemEntries: memEntries})
	if err != nil {
		return nil, err
	}
	return &stagedServer{t: t, cache: c, engine: newStagedEngine(t)}, nil
}

func (s *stagedServer) engines() []*stagedEngine { return append(s.done, s.engine) }

// inlineWorkload builds the transient workload of an inline-IR request the
// way serve's unexported Request.workload does.
func inlineWorkload(r *serve.Request, f *ir.Function) *workloads.Workload {
	name := r.Name
	if name == "" {
		name = "inline"
	}
	objs := make([]ir.MemObject, len(r.Objects))
	for i, o := range r.Objects {
		objs[i] = ir.MemObject{Name: o.Name, Base: o.Base, Size: o.Size}
	}
	input := func() workloads.Input {
		return workloads.Input{Args: append([]int64(nil), r.Args...), Mem: append([]int64(nil), r.Mem...)}
	}
	return &workloads.Workload{Name: name, Function: name, Suite: "inline", F: f, Objects: objs, Train: input, Ref: input}
}

func commPct(c interp.CommStats) float64 {
	if c.Total() == 0 {
		return 0
	}
	return 100 * float64(c.Comm()) / float64(c.Total())
}

// serve handles one request under the root span. body, when non-nil, is
// the wire form still to be decoded (the HTTP workloads); otherwise r is
// used as given (in-process Do).
func (s *stagedServer) serve(req, root int, body []byte, r *serve.Request) ([]byte, error) {
	if body != nil {
		id := s.t.begin(req, root, "serve.decode")
		r = new(serve.Request)
		err := json.Unmarshal(body, r)
		s.t.end(id)
		if err != nil {
			return nil, err
		}
	}
	var w *workloads.Workload
	eng := s.engine
	if r.Workload != "" {
		id := s.t.begin(req, root, "workloads.resolve")
		var err error
		w, err = cli.ResolveWorkload(r.Workload)
		s.t.end(id)
		if err != nil {
			return nil, err
		}
	} else {
		id := s.t.begin(req, root, "ir.parse")
		f, err := ir.Parse(r.IR)
		if err == nil {
			w = inlineWorkload(r, f)
		}
		s.t.end(id)
		if err != nil {
			return nil, err
		}
		eng = newStagedEngine(s.t)
		defer func() { s.done = append(s.done, eng) }()
	}
	part, err := cli.ResolvePartitioner(r.Partitioner)
	if err != nil {
		return nil, err
	}

	id := s.t.begin(req, root, "workloads.fingerprint")
	fp := w.Fingerprint()
	s.t.end(id)

	id = s.t.begin(req, root, "serve.key")
	b := budget.Experiments()
	h := cache.NewHasher(serve.SchemaVersion)
	h.Field("workload", fp)
	h.Field("partitioner", part.Name())
	h.Bool("sim", r.Sim)
	h.Int("budget.profile", b.ProfileSteps)
	h.Int("budget.measure", b.MeasureSteps)
	h.Int("budget.sim", b.SimCycles)
	h.Bool("degrade", false)
	key := h.Sum()
	s.t.end(id)

	id = s.t.begin(req, root, "cache.get")
	hit, ok := s.cache.Get(key)
	s.t.end(id)
	if ok {
		return hit, nil
	}

	resp := serve.Response{Schema: serve.SchemaVersion, Workload: w.Name, Partitioner: part.Name(), Fingerprint: fp}
	naive, opt, err := eng.comm(req, root, w, part)
	if err != nil {
		return nil, err
	}
	resp.Comm = &serve.Comm{Naive: naive, Coco: opt, NaivePct: commPct(naive), CocoPct: commPct(opt)}
	if r.Sim {
		st, nc, cc, err := eng.simulate(req, root, w, part)
		if err != nil {
			return nil, err
		}
		resp.Cycles = &serve.Cycles{SingleThreaded: st, Naive: nc, Coco: cc}
		if cc > 0 {
			resp.Cycles.Speedup = float64(st) / float64(cc)
		}
	}
	id = s.t.begin(req, root, "serve.marshal")
	out, err := json.Marshal(&resp)
	s.t.end(id)
	if err != nil {
		return nil, err
	}
	id = s.t.begin(req, root, "cache.put")
	err = s.cache.Put(key, out)
	s.t.end(id)
	return out, err
}

// handler mounts the staged path behind real HTTP, so a root span opened
// by the client around the round trip has the layers as children and the
// transport (net/http, loopback, header handling) as its self time.
func (s *stagedServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, hr *http.Request) {
		req, _ := strconv.Atoi(hr.Header.Get("X-Bench-Req"))
		root, _ := strconv.Atoi(hr.Header.Get("X-Bench-Root"))
		body, err := io.ReadAll(hr.Body)
		var out []byte
		if err == nil {
			out, err = s.serve(req, root, body, nil)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	})
}
