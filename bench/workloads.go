package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// scale sizes a run. full is what BENCHMARK.json's command measures; the
// smoke test shrinks every axis.
type scale struct {
	kernels     int // paper kernels per partitioner pass (11 = all)
	inline      int // distinct inline programs per cold_inline pass
	zipfKernels int // kernel keys in the warm key space (44 = all)
	zipfChunk   int // warm requests per pass
	zipfMem     int // MemEntries of the warm server
	setupMin    int // set-up repetitions: at least this many …
	setupFor    time.Duration
	// … and until this much time has gone into them, so a millisecond
	// set-up is the fastest of hundreds of samples, not of two.
	tracedInline int // inline requests in the staged sample
	tracedWarm   int // warm requests in the staged sample
	cacheProbe   int // entries in the cache layer probe
}

var full = scale{
	kernels: 11, inline: 360, zipfKernels: 44, zipfChunk: 500, zipfMem: 32,
	setupMin: 2, setupFor: 500 * time.Millisecond,
	tracedInline: 48, tracedWarm: 200, cacheProbe: 1000,
}

var toyScale = scale{
	kernels: 1, inline: 8, zipfKernels: 2, zipfChunk: 50, zipfMem: 2,
	setupMin:     1,
	tracedInline: 8, tracedWarm: 50, cacheProbe: 20,
}

// workload is one traffic mix; BENCHMARK.json says why each exists. setup
// builds a ready instance from the seed (its duration is setup_s); an
// instance runs whole passes, so every run of a seed measures the same op
// mix however many passes fit in -seconds.
type workload struct {
	name  string
	setup func(c *runConfig) (instance, error)
	trace func(c *runConfig, t *tracer, tr *traced) error
}

type instance interface {
	// pass runs one whole unit of the workload, adding one latency per op,
	// and returns how many ops it attempted and how many failed or did not
	// verify.
	pass(s *samples) (attempted, failed int)
	close()
}

var allWorkloads = []workload{
	{
		name:  "cold_kernels",
		setup: setupColdKernels,
		trace: traceColdKernels,
	},
	{
		name:  "cold_inline",
		setup: setupColdInline,
		trace: traceColdInline,
	},
	{
		name:  "warm_zipf",
		setup: setupWarmZipf,
		trace: traceWarmZipf,
	},
	{
		name:  "figures_batch",
		setup: setupFigures,
		trace: traceFigures,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// freshServer opens a server over a new empty cache directory under the
// run's scratch root.
func freshServer(c *runConfig, o serve.Options) (*serve.Server, error) {
	dir, err := os.MkdirTemp(c.tmp, "cache")
	if err != nil {
		return nil, err
	}
	o.CacheDir = dir
	return serve.New(o)
}

// ---- cold_kernels ----

type coldKernels struct {
	c    *runConfig
	reqs [][]request // per partitioner
}

func setupColdKernels(c *runConfig) (instance, error) {
	k := &coldKernels{c: c}
	for _, p := range partitioners {
		k.reqs = append(k.reqs, kernelRequests(p, true)[:c.sc.kernels])
	}
	// What a deployment pays before its first request: opening the cache.
	if _, err := freshServer(c, serve.Options{}); err != nil {
		return nil, err
	}
	return k, nil
}

// pass sends every kernel once per partitioner. Each partitioner gets its
// own fresh server: besides keeping every request cold, one server cannot
// serve the same named kernel under both partitioners today — its engine
// memoizes the PDG by content fingerprint while every request rebuilds the
// IR, so the second partitioner is handed a graph over another function's
// instructions and fails (see README, "Findings").
func (k *coldKernels) pass(sm *samples) (attempted, failed int) {
	ctx := context.Background()
	for pi, reqs := range k.reqs {
		s, err := freshServer(k.c, serve.Options{})
		if err != nil {
			return attempted + len(reqs), failed + len(reqs)
		}
		for i := range reqs {
			t0 := time.Now()
			res := s.Do(ctx, &reqs[i].Req)
			sm.add(pi*len(reqs)+i, time.Since(t0))
			attempted++
			if res.Status != http.StatusOK || res.Source != "cold" || !k.c.gold.checkBody(reqs[i].Label, res.Body) {
				failed++
				k.c.failf("%s: status %d source %s", reqs[i].Label, res.Status, res.Source)
			}
		}
		if st := s.StatsSnapshot(); st.Compute != int64(len(reqs)) {
			failed++
			k.c.failf("cold_kernels: compute = %d, want %d", st.Compute, len(reqs))
		}
	}
	return attempted, failed
}

func (k *coldKernels) close() {}

// ---- HTTP plumbing shared by cold_inline and warm_zipf ----

// client is the one closed-loop caller: it posts a request and waits for
// the whole reply before sending the next.
type client struct {
	hc  *http.Client
	url string
}

// post sends one request body, with extra header name/value pairs if any.
func (cl *client) post(body []byte, header ...string) (status int, source string, reply []byte, err error) {
	hr, err := http.NewRequest(http.MethodPost, cl.url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		hr.Header.Set(header[i], header[i+1])
	}
	resp, err := cl.hc.Do(hr)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Gmtserve-Source"), reply, err
}

func listen(h http.Handler) (*httptest.Server, *client) {
	ts := httptest.NewServer(h)
	return ts, &client{hc: ts.Client(), url: ts.URL + "/v1/schedule"}
}

// ---- cold_inline ----

type coldInline struct {
	c      *runConfig
	reqs   []request
	bodies [][]byte // first-pass replies: later passes must repeat them byte for byte
}

func setupColdInline(c *runConfig) (instance, error) {
	k := &coldInline{c: c, reqs: inlineCorpus(c.seed, c.sc.inline)}
	k.bodies = make([][]byte, len(k.reqs))
	s, err := freshServer(c, serve.Options{})
	if err != nil {
		return nil, err
	}
	ts, _ := listen(s.Handler())
	ts.Close()
	return k, nil
}

func (k *coldInline) pass(sm *samples) (attempted, failed int) {
	s, err := freshServer(k.c, serve.Options{})
	if err != nil {
		return len(k.reqs), len(k.reqs)
	}
	ts, cl := listen(s.Handler())
	defer ts.Close()
	for i := range k.reqs {
		t0 := time.Now()
		status, source, body, err := cl.post(k.reqs[i].Body)
		sm.add(i, time.Since(t0))
		attempted++
		ok := err == nil && status == http.StatusOK && source == "cold" && checkInlineBody(&k.reqs[i], body)
		if ok && k.bodies[i] != nil {
			ok = bytes.Equal(body, k.bodies[i])
		}
		if !ok {
			failed++
			k.c.failf("%s: status %d source %q err %v", k.reqs[i].Label, status, source, err)
			continue
		}
		k.bodies[i] = body
	}
	if st := s.StatsSnapshot(); st.Compute != int64(len(k.reqs)) {
		failed++
		k.c.failf("cold_inline: compute = %d, want %d", st.Compute, len(k.reqs))
	}
	return attempted, failed
}

func (k *coldInline) close() {}

// ---- warm_zipf ----

type warmZipf struct {
	c      *runConfig
	keys   []request
	bodies [][]byte // prewarm replies
	quota  []int
	rng    *rand.Rand
	s      *serve.Server
	ts     *httptest.Server
	cl     *client
}

// prewarm computes every key once into dir. Keys are grouped by
// partitioner onto separate server instances over the same directory (one
// server cannot compute a kernel under both, see coldKernels.pass); the
// bodies it returns are what every later warm reply must equal.
func prewarm(c *runConfig, keys []request, dir string) ([][]byte, error) {
	bodies := make([][]byte, len(keys))
	ctx := context.Background()
	for _, p := range partitioners {
		s, err := serve.New(serve.Options{CacheDir: dir})
		if err != nil {
			return nil, err
		}
		for i := range keys {
			if keys[i].Req.Partitioner != p {
				continue
			}
			res := s.Do(ctx, &keys[i].Req)
			if res.Status != http.StatusOK || res.Source != "cold" {
				return nil, fmt.Errorf("prewarm %s: status %d source %s: %s", keys[i].Label, res.Status, res.Source, res.Body)
			}
			if keys[i].Req.Workload != "" && !c.gold.checkBody(keys[i].Label, res.Body) {
				return nil, fmt.Errorf("prewarm %s: reply does not match the golden", keys[i].Label)
			}
			bodies[i] = res.Body
		}
	}
	return bodies, nil
}

func setupWarmZipf(c *runConfig) (instance, error) {
	k := &warmZipf{c: c, keys: zipfKeys(c.seed, c.sc.zipfKernels)}
	dir, err := os.MkdirTemp(c.tmp, "warm")
	if err != nil {
		return nil, err
	}
	if k.bodies, err = prewarm(c, k.keys, dir); err != nil {
		return nil, err
	}
	// The measured server restarts over the warm directory: its memory
	// layer starts empty and fills by promotion from disk.
	if k.s, err = serve.New(serve.Options{CacheDir: dir, MemEntries: c.sc.zipfMem}); err != nil {
		return nil, err
	}
	k.ts, k.cl = listen(k.s.Handler())
	k.quota = zipfQuota(c.sc.zipfChunk, len(k.keys))
	k.rng = zipfRand(c.seed)
	return k, nil
}

func (k *warmZipf) pass(sm *samples) (attempted, failed int) {
	for _, i := range zipfPass(k.rng, k.quota) {
		t0 := time.Now()
		status, source, body, err := k.cl.post(k.keys[i].Body)
		sm.add(i, time.Since(t0))
		attempted++
		if err != nil || status != http.StatusOK || source != "warm" || !bytes.Equal(body, k.bodies[i]) {
			failed++
			k.c.failf("%s: status %d source %q err %v", k.keys[i].Label, status, source, err)
		}
	}
	if st := k.s.StatsSnapshot(); st.Compute != 0 {
		failed++
		k.c.failf("warm_zipf: compute = %d on a prewarmed server, want 0", st.Compute)
	}
	return attempted, failed
}

func (k *warmZipf) close() { k.ts.Close() }

// ---- figures_batch ----

type figures struct {
	c  *runConfig
	ws []*workloads.Workload
}

func setupFigures(c *runConfig) (instance, error) {
	f := &figures{c: c, ws: workloads.All()[:c.sc.kernels]}
	// The engine keys every memo slot on the content fingerprint; hashing
	// both input images of all kernels is the batch's fixed entry cost.
	for _, w := range f.ws {
		w.Fingerprint()
	}
	return f, nil
}

// runFigures runs both experiments over ws on a fresh engine, as
// cmd/experiments runs them over all kernels.
func runFigures(ws []*workloads.Workload, jobs int) ([]exp.CommRow, []exp.SpeedupRow, exp.EngineStats, error) {
	ctx := context.Background()
	e := exp.NewEngine(exp.EngineOptions{Jobs: jobs})
	comm, err := e.CommExperiment(ctx, ws)
	if err != nil {
		return nil, nil, exp.EngineStats{}, err
	}
	speed, err := e.SpeedupExperiment(ctx, sim.DefaultConfig(), ws)
	return comm, speed, e.Stats(), err
}

// pass regenerates the figures kernel by kernel: one op is one kernel's four
// cells (both experiments under both partitioners) on an engine of its own.
// The engine's memo tables are keyed by kernel, so eleven engines do the
// work of one; what the split buys is an op of a tenth of a second instead
// of one and a half, short enough to run undisturbed on two shared cores now
// and then (README, "Steadiness").
func (f *figures) pass(sm *samples) (attempted, failed int) {
	for i, w := range f.ws {
		t0 := time.Now()
		comm, speed, st, err := runFigures(f.ws[i:i+1], 2)
		sm.add(i, time.Since(t0))
		attempted++
		switch {
		case err != nil:
			failed++
			f.c.failf("figures_batch %s: %v", w.Name, err)
		case !f.c.gold.checkRows(comm, speed) || st.ProfileRuns != 1:
			failed++
			f.c.failf("figures_batch %s: rows do not match the goldens (profile runs %d)", w.Name, st.ProfileRuns)
		}
	}
	return attempted, failed
}

func (f *figures) close() {}
