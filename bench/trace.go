package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// traced is what a workload's trace function accumulates besides spans.
// The staged path and the real program replay the same requests; their
// summed latencies give trace.coverage, and their replies must agree.
type traced struct {
	// per-request latency of the two replays, all rounds; a request's slot
	// is its position in the fixed sample
	real, staged samples
	rounds       int
	attempted    int
	failed       int
	http         bool // roots include a loopback round trip

	// counts of the first round only: later rounds depend on -seconds
	stats    serve.Stats
	engines  []*stagedEngine
	expStats exp.EngineStats

	extra map[string]metric // workload-specific layer metrics
}

func (tr *traced) set(name string, v float64, unit string) { tr.extra[name] = metric{v, unit} }

// cost is what one round of the sample costs: every request charged as an
// end-to-end op is (opCosts), so a round that shared the machine does not
// decide trace.coverage.
func (tr *traced) cost(s *samples) (total float64) {
	for _, oc := range opCosts(s, tr.rounds) {
		total += oc.weight * oc.ms
	}
	return total
}

// addStats adds sign × the counters the layer metrics report.
func addStats(a *serve.Stats, b serve.Stats, sign int64) {
	a.Requests += sign * b.Requests
	a.Compute += sign * b.Compute
	a.Errors += sign * b.Errors
	a.CacheHitMem += sign * b.CacheHitMem
	a.CacheHitDisk += sign * b.CacheHitDisk
	a.CacheMiss += sign * b.CacheMiss
	a.CacheEvictMem += sign * b.CacheEvictMem
	a.SingleflightMerged += sign * b.SingleflightMerged
	a.QueueRejected += sign * b.QueueRejected
}

// pair is the program under test and the staged path side by side, both
// in-process or both behind loopback HTTP.
type pair struct {
	t          *tracer
	s          *serve.Server
	ss         *stagedServer
	real, stag *client // nil: in-process
	close      func()
}

func newPair(t *tracer, s *serve.Server, ss *stagedServer, overHTTP bool) *pair {
	p := &pair{t: t, s: s, ss: ss, close: func() {}}
	if overHTTP {
		rs, rc := listen(s.Handler())
		gs, gc := listen(ss.handler())
		p.real, p.stag = rc, gc
		p.close = func() { rs.Close(); gs.Close() }
	}
	return p
}

// doReal sends one request to the program under test.
func (p *pair) doReal(q *request) (time.Duration, []byte, error) {
	t0 := time.Now()
	if p.real == nil {
		res := p.s.Do(context.Background(), &q.Req)
		if res.Status != http.StatusOK {
			return 0, nil, fmt.Errorf("%s: status %d: %s", q.Label, res.Status, res.Body)
		}
		return time.Since(t0), res.Body, nil
	}
	status, _, body, err := p.real.post(q.Body)
	if err != nil || status != http.StatusOK {
		return 0, nil, fmt.Errorf("%s: status %d: %v", q.Label, status, err)
	}
	return time.Since(t0), body, nil
}

// doStaged sends the same request down the staged path, under a root span
// the layers hang off.
func (p *pair) doStaged(q *request) (time.Duration, []byte, error) {
	req := p.t.newRequest()
	root := p.t.begin(req, 0, "request")
	var body []byte
	var err error
	if p.stag == nil {
		body, err = p.ss.serve(req, root, nil, &q.Req)
	} else {
		var status int
		status, _, body, err = p.stag.post(q.Body, "X-Bench-Req", strconv.Itoa(req), "X-Bench-Root", strconv.Itoa(root))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
	}
	p.t.end(root)
	if err != nil {
		return 0, nil, fmt.Errorf("staged %s: %w", q.Label, err)
	}
	return p.t.dur(root), body, nil
}

// replay sends every request down both paths, one request at a time and
// alternating which path goes first: the machine's speed drifts by ±10 %
// over seconds, and two whole replays one after the other would measure
// the drift. It records both latencies, counts a staged reply that differs
// from the program's own — the staged path recomputes every response
// through the layers' public functions, so equality is byte for byte — and
// returns the program's replies.
func (tr *traced) replay(c *runConfig, p *pair, base int, reqs []request, round int) ([][]byte, error) {
	replies := make([][]byte, len(reqs))
	for i := range reqs {
		var lat, slat time.Duration
		var staged []byte
		var err error
		for _, stagedTurn := range []bool{(i+round)%2 == 1, (i+round)%2 == 0} {
			if stagedTurn {
				slat, staged, err = p.doStaged(&reqs[i])
			} else {
				lat, replies[i], err = p.doReal(&reqs[i])
			}
			if err != nil {
				return nil, err
			}
		}
		tr.real.add(base+i, lat)
		tr.staged.add(base+i, slat)
		tr.attempted++
		if !bytes.Equal(replies[i], staged) {
			tr.failed++
			c.failf("%s: staged reply differs from the server's\n  server %s\n  staged %s", reqs[i].Label, replies[i], staged)
		}
	}
	return replies, nil
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// coldRound replays reqs against a fresh server and a fresh staged server.
func (tr *traced) coldRound(c *runConfig, t *tracer, base int, reqs []request, overHTTP bool, round int, check func(q *request, body []byte) bool) error {
	s, err := freshServer(c, serve.Options{})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.tmp, "staged")
	if err != nil {
		return err
	}
	ss, err := newStagedServer(t, dir, 0)
	if err != nil {
		return err
	}
	p := newPair(t, s, ss, overHTTP)
	defer p.close()
	replies, err := tr.replay(c, p, base, reqs, round)
	if err != nil {
		return err
	}
	for i := range reqs {
		if !check(&reqs[i], replies[i]) {
			tr.failed++
			c.failf("%s: reply does not verify", reqs[i].Label)
		}
	}
	if !c.gold.checkStatic(ss.engine.static) {
		tr.failed++
		c.failf("static instruction/queue counts do not match the goldens")
	}
	if round == 0 {
		addStats(&tr.stats, s.StatsSnapshot(), 1)
		tr.engines = append(tr.engines, ss.engines()...)
	}
	return nil
}

// onTwoPs runs f with a second P, for the two layer metrics that are about
// one; everything else is measured on the one P main sets.
func onTwoPs(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f()
}

// run calls round for -seconds as measure does (wholePasses).
func (tr *traced) run(c *runConfig, round func(n int) error) error {
	return wholePasses(c.seconds, func(n int) error {
		if err := round(n); err != nil {
			return err
		}
		tr.rounds++
		return nil
	})
}

func traceColdKernels(c *runConfig, t *tracer, tr *traced) error {
	check := func(q *request, body []byte) bool { return c.gold.checkBody(q.Label, body) }
	return tr.run(c, func(n int) error {
		for pi, p := range partitioners {
			reqs := kernelRequests(p, true)[:c.sc.kernels]
			if err := tr.coldRound(c, t, pi*len(reqs), reqs, false, n, check); err != nil {
				return err
			}
		}
		return nil
	})
}

func traceColdInline(c *runConfig, t *tracer, tr *traced) error {
	tr.http = true
	n := min(c.sc.tracedInline, c.sc.inline)
	reqs := inlineCorpus(c.seed, n)
	return tr.run(c, func(n int) error {
		return tr.coldRound(c, t, 0, reqs, true, n, checkInlineBody)
	})
}

func traceWarmZipf(c *runConfig, t *tracer, tr *traced) error {
	tr.http = true
	keys := zipfKeys(c.seed, c.sc.zipfKernels)
	dir, err := os.MkdirTemp(c.tmp, "warm")
	if err != nil {
		return err
	}
	bodies, err := prewarm(c, keys, dir)
	if err != nil {
		return err
	}
	var reqs []request
	var want [][]byte
	for _, i := range zipfPass(zipfRand(c.seed), zipfQuota(c.sc.tracedWarm, len(keys))) {
		reqs = append(reqs, keys[i])
		want = append(want, bodies[i])
	}
	// Both sides read the one warm directory (a warm Get never writes);
	// each replays the sample once untimed so its memory layer is in the
	// steady state the timed replay then measures.
	s, err := serve.New(serve.Options{CacheDir: dir, MemEntries: c.sc.zipfMem})
	if err != nil {
		return err
	}
	ss, err := newStagedServer(t, dir, c.sc.zipfMem)
	if err != nil {
		return err
	}
	p := newPair(t, s, ss, true)
	defer p.close()
	mark := len(t.spans)
	for i := range reqs {
		if _, _, err := p.doReal(&reqs[i]); err != nil {
			return err
		}
		if _, _, err := p.doStaged(&reqs[i]); err != nil {
			return err
		}
	}
	t.spans = t.spans[:mark] // span IDs are positions, so dropping the tail keeps them valid
	before := s.StatsSnapshot()
	err = tr.run(c, func(n int) error {
		replies, err := tr.replay(c, p, 0, reqs, n)
		if err != nil {
			return err
		}
		for i := range reqs {
			if !bytes.Equal(replies[i], want[i]) {
				tr.failed++
				c.failf("%s: warm reply differs from its prewarm reply", reqs[i].Label)
			}
		}
		if n == 0 {
			addStats(&tr.stats, s.StatsSnapshot(), 1)
			addStats(&tr.stats, before, -1)
			tr.engines = ss.engines()
		}
		return nil
	})
	if err != nil {
		return err
	}
	oneClient := float64(len(reqs)) * 1000 / tr.cost(&tr.real)

	// serve.do_warm_us: the same requests without the transport.
	inproc := &pair{s: s}
	xs := make([]float64, len(reqs))
	for i := range reqs {
		d, _, err := inproc.doReal(&reqs[i])
		if err != nil {
			return err
		}
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	tr.set("serve.do_warm_us", median(xs), "us")

	// serve.scaling_c2: two closed-loop clients splitting the sample on two
	// Ps, the fastest of three replays as oneClient is of its rounds.
	ts, _ := listen(s.Handler())
	defer ts.Close()
	errs := make([]error, 2)
	var twoClients float64
	onTwoPs(func() {
		for rep := 0; rep < 3; rep++ {
			var wg sync.WaitGroup
			t0 := time.Now()
			for k := 0; k < 2; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					cl := &client{hc: ts.Client(), url: ts.URL + "/v1/schedule"}
					for i := k; i < len(reqs); i += 2 {
						if status, _, _, err := cl.post(reqs[i].Body); err != nil || status != http.StatusOK {
							errs[k] = fmt.Errorf("%s: status %d: %v", reqs[i].Label, status, err)
							return
						}
					}
				}(k)
			}
			wg.Wait()
			twoClients = max(twoClients, float64(len(reqs))/time.Since(t0).Seconds())
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	tr.set("serve.scaling_c2", twoClients/oneClient, "ratio")
	if st := s.StatsSnapshot(); st.Compute != 0 {
		tr.failed++
		c.failf("warm_zipf: compute = %d on a prewarmed server, want 0", st.Compute)
	}
	return nil
}

// traceFigures evaluates the 88 cells one by one in the engine's serial
// order, each through exp.Engine's own cell method (what the experiments
// fan out over internal/par) and through the staged engine, alternating
// which goes first as replay does. A whole batch at Jobs 2, what the
// workload measures, gives par.speedup_j2.
func traceFigures(c *runConfig, t *tracer, tr *traced) error {
	ctx := context.Background()
	cfg := sim.DefaultConfig()
	ws := workloads.All()[:c.sc.kernels]
	var jobs1, jobs2 samples
	err := tr.run(c, func(n int) error {
		eng := exp.NewEngine(exp.EngineOptions{Jobs: 1})
		e := newStagedEngine(t)
		slot := 0
		var serial time.Duration
		// both runs one cell down both paths; real and staged report
		// whether the two agree with each other.
		both := func(real func() error, staged func(req, root int) error, agree func() bool) error {
			for _, stagedTurn := range []bool{(slot+n)%2 == 1, (slot+n)%2 == 0} {
				if stagedTurn {
					req := t.newRequest()
					root := t.begin(req, 0, "cell")
					err := staged(req, root)
					t.end(root)
					if err != nil {
						return err
					}
					tr.staged.add(slot, t.dur(root))
				} else {
					t0 := time.Now()
					if err := real(); err != nil {
						return err
					}
					tr.real.add(slot, time.Since(t0))
					serial += time.Since(t0)
				}
			}
			slot++
			tr.attempted++
			if !agree() {
				tr.failed++
				c.failf("cell %d: the staged row differs from the engine's", slot-1)
			}
			return nil
		}
		var comm []exp.CommRow
		var speed []exp.SpeedupRow
		for _, part := range exp.Partitioners() {
			for _, w := range ws {
				var row exp.CommRow
				srow := exp.CommRow{Workload: w.Name, Partitioner: part.Name()}
				if err := both(
					func() (err error) { row, err = eng.CommCell(ctx, w, part); return err },
					func(req, root int) (err error) { srow.Naive, srow.Coco, err = e.comm(req, root, w, part); return err },
					func() bool { return row == srow },
				); err != nil {
					return err
				}
				comm = append(comm, row)
			}
		}
		for _, part := range exp.Partitioners() {
			for _, w := range ws {
				var row exp.SpeedupRow
				srow := exp.SpeedupRow{Workload: w.Name, Partitioner: part.Name()}
				if err := both(
					func() (err error) { row, err = eng.SpeedupCell(ctx, cfg, w, part); return err },
					func(req, root int) (err error) {
						srow.STCycles, srow.NaiveCycles, srow.CocoCycles, err = e.simulate(req, root, w, part)
						return err
					},
					func() bool { return row == srow },
				); err != nil {
					return err
				}
				speed = append(speed, row)
			}
		}
		jobs1.add(0, serial)
		var err error
		onTwoPs(func() {
			t0 := time.Now()
			_, _, _, err = runFigures(ws, 2)
			jobs2.add(0, time.Since(t0))
		})
		if err != nil {
			return err
		}

		if !c.gold.checkRows(comm, speed) || !c.gold.checkStatic(e.static) {
			tr.failed++
			c.failf("figures_batch: rows or static counts do not match the goldens")
		}
		st := eng.Stats()
		if st.ProfileRuns != e.profileRuns || st.PDGBuilds != e.pdgBuilds {
			tr.failed++
			c.failf("figures_batch: engine ran %d profiles / %d PDG builds, staged path %d / %d",
				st.ProfileRuns, st.PDGBuilds, e.profileRuns, e.pdgBuilds)
		}
		if n == 0 {
			tr.engines = []*stagedEngine{e}
			tr.expStats = st
		}
		return nil
	})
	if err == nil {
		tr.set("par.speedup_j2", tr.cost(&jobs1)/tr.cost(&jobs2), "ratio")
	}
	return err
}

// ---- layer probes that do not depend on the workload ----

// probePayload is the size of a real response body.
const probePayload = 520

func medianDur(n int, unit time.Duration, op func(i int)) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		op(i)
		xs[i] = float64(time.Since(t0)) / float64(unit)
	}
	return median(xs)
}

// probeCache times the cache layer alone on an instance of its own: put
// (plain and durable), get from memory, get from disk (a memory layer too
// small to hold anything warm), and the recovery scan a restart pays.
func probeCache(c *runConfig, out map[string]metric) error {
	n := c.sc.cacheProbe
	payload := bytes.Repeat([]byte("x"), probePayload)
	keys := make([]string, n) // hashed up front: a memory hit is as cheap as the hash
	for i := range keys {
		h := cache.NewHasher(1)
		h.Int("probe", int64(i))
		keys[i] = h.Sum()
	}
	key := func(i int) string { return keys[i] }
	dir, err := os.MkdirTemp(c.tmp, "probe")
	if err != nil {
		return err
	}
	big, err := cache.New(cache.Options{Dir: dir, MemEntries: 2 * n})
	if err != nil {
		return err
	}
	var putErr error
	out["cache.put_us"] = metric{medianDur(n, time.Microsecond, func(i int) {
		if err := big.Put(key(i), payload); err != nil {
			putErr = err
		}
	}), "us"}
	if putErr != nil {
		return putErr
	}
	misses := 0
	out["cache.get_mem_us"] = metric{medianDur(n, time.Microsecond, func(i int) {
		if _, ok := big.Get(key(i)); !ok {
			misses++
		}
	}), "us"}

	var small *cache.Cache
	t0 := time.Now()
	if small, err = cache.New(cache.Options{Dir: dir, MemEntries: 1}); err != nil {
		return err
	}
	out["cache.open_ms_per_1k"] = metric{ms(time.Since(t0)) * 1000 / float64(n), "ms"}
	out["cache.get_disk_us"] = metric{medianDur(n, time.Microsecond, func(i int) {
		if _, ok := small.Get(key(i)); !ok {
			misses++
		}
	}), "us"}
	if misses > 0 {
		return fmt.Errorf("cache probe: %d of %d entries did not read back", misses, 2*n)
	}

	ddir, err := os.MkdirTemp(c.tmp, "durable")
	if err != nil {
		return err
	}
	durable, err := cache.New(cache.Options{Dir: ddir, Durable: true})
	if err != nil {
		return err
	}
	out["cache.put_durable_us"] = metric{medianDur(max(n/10, 1), time.Microsecond, func(i int) {
		if err := durable.Put(key(i), payload); err != nil {
			putErr = err
		}
	}), "us"}
	return putErr
}

// probeSetup times the two set-up layers: serve.New over an empty
// directory and generating one inline program.
func probeSetup(c *runConfig, out map[string]metric) error {
	var newErr error
	out["serve.new_ms"] = metric{medianDur(20, time.Millisecond, func(int) {
		if _, err := freshServer(c, serve.Options{}); err != nil {
			newErr = err
		}
	}), "ms"}
	out["randprog.gen_ms"] = metric{medianDur(50, time.Millisecond, func(i int) { inlineEntry(c.seed, i) }), "ms"}
	return newErr
}

// heapSampler tracks the live-heap peak at 100 ms resolution.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and waits for it.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// ---- aggregation ----

// layerTimes groups span self times by layer. Layers are leaves, so their
// self time is their duration; a root's self time is what its children do
// not cover: the transport on the HTTP workloads, loop glue otherwise.
func layerTimes(spans []span) (self map[string][]float64, rootTotal float64) {
	self = map[string][]float64{}
	covered := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
			self[s.Name] = append(self[s.Name], float64(s.End-s.Start))
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			self["root"] = append(self["root"], float64(s.End-s.Start-covered[s.ID]))
			rootTotal += float64(s.End - s.Start)
		}
	}
	return self, rootTotal
}

// spanCost calibrates what recording one span costs.
func spanCost() time.Duration {
	t := newTracer()
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(1, 1, "calibrate"))
	}
	return time.Since(t0) / n
}

// layerMetrics are the per-layer medians taken straight from spans: the
// span is the metric's name without its unit suffix.
var layerMetrics = []string{
	"sim.st_ms", "sim.naive_ms", "sim.coco_ms", "interp.profile_ms", "interp.mt_ms",
	"coco.plan_ms", "pdg.build_ms", "partition.gremio_ms", "partition.dswp_ms",
	"mtcg.naive_ms", "mtcg.coco_ms", "queue.alloc_us",
	"workloads.resolve_us", "workloads.fingerprint_us", "ir.parse_us",
	"serve.decode_us", "serve.marshal_us",
}

// measureTraced runs the workload's staged trace and the layer probes and
// returns every per-layer metric; a layer the workload never enters reads 0.
func measureTraced(w workload, c *runConfig, traceOut string) (result, error) {
	heap := startHeapSampler()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t := newTracer()
	tr := &traced{extra: map[string]metric{}}
	err := w.trace(c, t, tr)
	peak := heap.finish()
	if err != nil {
		return result{}, fmt.Errorf("%s: trace: %w", w.name, err)
	}
	runtime.ReadMemStats(&m1)

	out := map[string]metric{}
	self, rootTotal := layerTimes(t.spans)
	for _, name := range layerMetrics {
		span, unit := name[:len(name)-3], name[len(name)-2:]
		per := time.Millisecond
		if unit == "us" {
			per = time.Microsecond
		}
		out[name] = metric{median(self[span]) / float64(per), unit}
	}
	var simTime, interpTime float64
	for _, n := range []string{"sim.st", "sim.naive", "sim.coco"} {
		simTime += total(self[n])
	}
	for _, n := range []string{"interp.profile", "interp.mt"} {
		interpTime += total(self[n])
	}
	// Rates and static counts come from the first round's engines, the
	// times they divide by from all rounds: scale by the round count.
	var steps, cycles, arcs, instrs, profiles, pdgs int64
	for _, e := range tr.engines {
		steps, cycles, arcs, instrs = steps+e.steps, cycles+e.cycles, arcs+e.arcs, instrs+e.instrs
		profiles, pdgs = profiles+e.profileRuns, pdgs+e.pdgBuilds
	}
	rate := func(work int64, ns float64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(work) * float64(tr.rounds) / (ns / 1e9) / 1e6
	}
	out["sim.mcycles_per_s"] = metric{rate(cycles, simTime), "M/s"}
	out["interp.msteps_per_s"] = metric{rate(steps, interpTime), "M/s"}
	out["sim.cycles"] = metric{float64(cycles), "count"}
	out["pdg.arcs"] = metric{float64(arcs), "count"}
	out["mtcg.instrs"] = metric{float64(instrs), "count"}
	out["coco.plan_share"] = metric{total(self["coco.plan"]) / rootTotal, "ratio"}
	out["serve.http_overhead_us"] = metric{0, "us"}
	if tr.http {
		out["serve.http_overhead_us"] = metric{median(self["root"]) / float64(time.Microsecond), "us"}
	}

	st := tr.stats
	out["serve.requests"] = metric{float64(st.Requests), "count"}
	out["serve.compute"] = metric{float64(st.Compute), "count"}
	out["serve.merged"] = metric{float64(st.SingleflightMerged), "count"}
	out["serve.rejected"] = metric{float64(st.QueueRejected), "count"}
	out["serve.errors"] = metric{float64(st.Errors), "count"}
	out["cache.hit_mem"] = metric{float64(st.CacheHitMem), "count"}
	out["cache.hit_disk"] = metric{float64(st.CacheHitDisk), "count"}
	out["cache.miss"] = metric{float64(st.CacheMiss), "count"}
	out["cache.evict_mem"] = metric{float64(st.CacheEvictMem), "count"}
	out["cache.hit_share"] = metric{0, "ratio"}
	if lookups := st.CacheHitMem + st.CacheHitDisk + st.CacheMiss; lookups > 0 {
		out["cache.hit_share"] = metric{float64(st.CacheHitMem+st.CacheHitDisk) / float64(lookups), "ratio"}
	}
	out["exp.profile_runs"] = metric{float64(profiles), "count"}
	out["exp.pdg_builds"] = metric{float64(pdgs), "count"}
	out["exp.fallbacks"] = metric{float64(tr.expStats.Fallbacks), "count"}

	out["serve.do_warm_us"] = metric{0, "us"}
	out["serve.scaling_c2"] = metric{0, "ratio"}
	out["par.speedup_j2"] = metric{0, "ratio"}
	for n, m := range tr.extra {
		out[n] = m
	}
	if err := probeCache(c, out); err != nil {
		return result{}, err
	}
	if err := probeSetup(c, out); err != nil {
		return result{}, err
	}

	out["proc.heap_peak_mb"] = metric{float64(peak) / (1 << 20), "MB"}
	out["proc.gc_count"] = metric{float64(m1.NumGC - m0.NumGC), "count"}
	out["proc.gc_pause_ms"] = metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"}

	// The tail the end-to-end run is too short to gate: every untraced
	// latency of the replay, pooled over the rounds.
	lats := make([]float64, len(tr.real.lat))
	for i, d := range tr.real.lat {
		lats[i] = ms(d)
	}
	sort.Float64s(lats)
	out["lat_p99_ms"] = metric{nearestRank(lats, 0.99), "ms"}

	coverage := tr.cost(&tr.staged) / tr.cost(&tr.real)
	out["trace.coverage"] = metric{coverage, "ratio"}
	out["trace.overhead_share"] = metric{float64(len(t.spans)) * float64(spanCost()) / rootTotal, "ratio"}

	res := result{Attempted: tr.attempted, Failed: tr.failed, Metrics: out}
	// Conservation: the layers must tile the request. Under a second of
	// replayed work (the smoke scale) the ratio measures which side ran
	// first in a cold process, not the tiling, and is only reported.
	if (coverage < 0.9 || coverage > 1.1) && sum(tr.real.lat) >= time.Second {
		res.Failed++
		c.failf("%s: trace.coverage = %.3f: the staged layers do not tile the request (want 0.9–1.1)", w.name, coverage)
	}
	res.Correct = res.Failed == 0
	printLayerTable(c, w.name, self, rootTotal, tr)
	if traceOut != "" {
		if err := writeSpans(traceOut, w.name, c.seed, t.spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

func total(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// printLayerTable prints the table whose layer column adds up to the
// staged total, next to the program's own time for the same requests.
func printLayerTable(c *runConfig, name string, self map[string][]float64, rootTotal float64, tr *traced) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return total(self[names[i]]) > total(self[names[j]]) })
	roots := float64(len(self["root"]))
	rootName := "(loop glue)"
	if tr.http {
		rootName = "(http transport)"
	}
	fmt.Fprintf(c.log, "%s: staged layers over %d requests/cells, all rounds\n", name, int(roots))
	fmt.Fprintf(c.log, "  %-24s %8s %12s %14s %7s\n", "layer", "spans", "total ms", "ms/request", "share")
	for _, n := range names {
		label := n
		if n == "root" {
			label = rootName
		}
		tot := total(self[n])
		fmt.Fprintf(c.log, "  %-24s %8d %12.2f %14.4f %6.1f%%\n", label, len(self[n]), tot/1e6, tot/1e6/roots, 100*tot/rootTotal)
	}
	fmt.Fprintf(c.log, "  %-24s %8s %12.2f %14.4f %6.1f%%\n", "staged total", "", rootTotal/1e6, rootTotal/1e6/roots, 100.0)
	fmt.Fprintf(c.log, "  %-24s %8s %12.2f %14.4f\n", "program, same requests", "", ms(sum(tr.real.lat)), ms(sum(tr.real.lat))/roots)
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
