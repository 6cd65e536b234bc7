package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// failingFS fails the first failWrites Append calls — the cache's
// writes — with EIO, then passes through (the disk "heals"): the script
// the breaker-driven health tests need.
type failingFS struct {
	vfs.OS
	mu         sync.Mutex
	failWrites int
	writes     int
}

func (f *failingFS) Append(path string, data []byte, durable bool) (int64, error) {
	f.mu.Lock()
	f.writes++
	fail := f.writes <= f.failWrites
	f.mu.Unlock()
	if fail {
		return 0, fmt.Errorf("scripted write fault: %w", syscall.EIO)
	}
	return f.OS.Append(path, data, durable)
}

// TestPutFaultNeverFailsRequest: a disk too full to cache the response
// must not fail the request — the bytes are computed, served with 200,
// counted under cache_put_errors, and identical to a fault-free server's.
func TestPutFaultNeverFailsRequest(t *testing.T) {
	ctx := context.Background()
	clean := newServer(t, Options{CacheDir: t.TempDir(), Degrade: true})
	want := mustOK(t, clean.Do(ctx, ksReq()))
	wantBytes := clean.Do(ctx, ksReq()).Body

	// ByteBudget 1: the very first cache write overflows the disk.
	faulty := vfs.NewFaulty(vfs.Spec{Class: vfs.WriteENOSPC, Seed: 1, ByteBudget: 1})
	s := newServer(t, Options{CacheDir: t.TempDir(), Degrade: true, FS: faulty, BreakerThreshold: -1})
	res := s.Do(ctx, ksReq())
	got := mustOK(t, res)
	if res.Source != "cold" {
		t.Fatalf("source = %q, want cold", res.Source)
	}
	if !bytes.Equal(res.Body, wantBytes) {
		t.Fatalf("full-disk response differs from fault-free:\n%s\n%s", res.Body, wantBytes)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", got.Fingerprint, want.Fingerprint)
	}
	if counter(s, "serve.cache.put_errors") == 0 {
		t.Fatal("cache.put_errors = 0, want the failed Put counted")
	}
	if st := s.StatsSnapshot(); st.Errors != 0 {
		t.Fatalf("errors = %d, want 0 (the request succeeded)", st.Errors)
	}
	// The memory layer still has the bytes: the retry is warm and equal.
	warm := s.Do(ctx, ksReq())
	if warm.Source != "warm" || !bytes.Equal(warm.Body, wantBytes) {
		t.Fatalf("post-fault warm request: source %q, bytes equal %v", warm.Source, bytes.Equal(warm.Body, wantBytes))
	}
}

// TestReadFaultBytesIdentical: transient read faults under a warm disk
// never change response bytes — retries (or a recompute) serve the same
// payload a fault-free server does.
func TestReadFaultBytesIdentical(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s1 := newServer(t, Options{CacheDir: dir, Degrade: true})
	wantBytes := s1.Do(ctx, ksReq()).Body
	if len(wantBytes) == 0 {
		t.Fatal("seed request returned no bytes")
	}

	// A restarted server over the same cache, with flaky reads: every
	// response still byte-identical.
	faulty := vfs.NewFaulty(vfs.Spec{Class: vfs.ReadEIO, Seed: 3})
	s2 := newServer(t, Options{CacheDir: dir, MemEntries: 1, Degrade: true, FS: faulty})
	for i := 0; i < 5; i++ {
		res := s2.Do(ctx, ksReq())
		if res.Status != http.StatusOK || !bytes.Equal(res.Body, wantBytes) {
			t.Fatalf("request %d under read faults: status %d, bytes equal %v", i, res.Status, bytes.Equal(res.Body, wantBytes))
		}
	}
}

// TestSingleflightUnderDiskFaults: concurrent identical requests during
// injected disk faults resolve to one consistent outcome — every joiner
// gets the leader's bytes, and singleflight_merged matches the number of
// merged responses exactly (breaker activity must not double-count).
func TestSingleflightUnderDiskFaults(t *testing.T) {
	ctx := context.Background()
	// Writes fail long enough to trip the breaker mid-burst; reads are
	// healthy so the outcome is the computed payload either way.
	fs := &failingFS{failWrites: 100}
	s := newServer(t, Options{
		CacheDir: t.TempDir(), Degrade: true, FS: fs,
		DiskRetries: -1, BreakerThreshold: 2,
	})

	const n = 8
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Do(ctx, ksReq())
		}(i)
	}
	wg.Wait()

	merged := 0
	for i, res := range results {
		if res.Status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, res.Status, res.Body)
		}
		if !bytes.Equal(res.Body, results[0].Body) {
			t.Fatalf("request %d bytes differ from request 0", i)
		}
		if res.Source == "merged" {
			merged++
		}
	}
	st := s.StatsSnapshot()
	if st.SingleflightMerged != int64(merged) {
		t.Fatalf("singleflight_merged = %d, want %d (one per merged response, no double-counting)",
			st.SingleflightMerged, merged)
	}
	if st.Compute == 0 || st.Compute+st.SingleflightMerged+st.CacheHitMem+st.CacheHitDisk < n {
		t.Fatalf("outcome accounting doesn't cover the burst: %+v", st)
	}
}

// TestDeadlineExceeded: a request whose deadline expires mid-compute
// gets 504 and the deadline_exceeded counter; the same request without
// a deadline then computes from scratch and succeeds, proving the
// deadline — not the workload — failed and that nothing of the
// cancelled build outlives its request.
func TestDeadlineExceeded(t *testing.T) {
	ctx := context.Background()
	s := newServer(t, Options{Degrade: true})
	req := &Request{Workload: "mpeg2enc", Partitioner: "gremio", Sim: true, DeadlineMS: 1}
	res := s.Do(ctx, req)
	if res.Status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", res.Status, res.Body)
	}
	st := s.StatsSnapshot()
	if n := counter(s, "serve.deadline.exceeded"); n != 1 {
		t.Fatalf("deadline.exceeded = %d, want 1", n)
	}
	req.DeadlineMS = 0
	res = s.Do(ctx, req)
	mustOK(t, res)
	if after := s.StatsSnapshot(); res.Source != "cold" || after.Compute != st.Compute+1 {
		t.Fatalf("retry without a deadline: source %q, compute %d -> %d, want cold and one more",
			res.Source, st.Compute, after.Compute)
	}
}

// TestDeadlineClamp: the effective deadline is requested-else-default
// clamped to the cap, and it never reaches the cache key.
func TestDeadlineClamp(t *testing.T) {
	s := newServer(t, Options{DefaultDeadline: 2 * time.Second, MaxDeadline: 5 * time.Second})
	for _, tc := range []struct {
		reqMS int64
		want  time.Duration
	}{
		{0, 2 * time.Second},      // default
		{1000, time.Second},       // requested under the cap
		{60_000, 5 * time.Second}, // clamped
	} {
		if got := s.deadlineFor(&Request{DeadlineMS: tc.reqMS}); got != tc.want {
			t.Errorf("deadlineFor(%d ms) = %v, want %v", tc.reqMS, got, tc.want)
		}
	}
	// No default: only the cap applies.
	s2 := newServer(t, Options{MaxDeadline: 3 * time.Second})
	if got := s2.deadlineFor(&Request{}); got != 3*time.Second {
		t.Errorf("capped no-default deadline = %v, want the cap", got)
	}
	s3 := newServer(t, Options{})
	if got := s3.deadlineFor(&Request{}); got != 0 {
		t.Errorf("unconfigured deadline = %v, want none", got)
	}

	// Two requests differing only in deadline share one cache entry.
	ctx := context.Background()
	s4 := newServer(t, Options{Degrade: true})
	a := s4.Do(ctx, ksReq())
	reqB := ksReq()
	reqB.DeadlineMS = 30_000
	b := s4.Do(ctx, reqB)
	if b.Source != "warm" || !bytes.Equal(a.Body, b.Body) {
		t.Fatalf("deadline leaked into the cache key: source %q", b.Source)
	}
}

// TestHealthStateMachine drives healthy → degraded (breaker trip) →
// healthy (probe closes) → draining (terminal), checking /v1/healthz
// liveness vs readiness at each stop.
func TestHealthStateMachine(t *testing.T) {
	ctx := context.Background()
	// Threshold 1: the scripted fault on the first request's Put trips the
	// breaker at once (a cache miss touches no disk, so the Put is each
	// cold request's only disk operation).
	fs := &failingFS{failWrites: 1}
	s := newServer(t, Options{
		CacheDir: t.TempDir(), Degrade: true, FS: fs,
		DiskRetries: -1, BreakerThreshold: 1, BreakerProbe: 1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	checkHealthz := func(wantState string, wantReady bool) {
		t.Helper()
		for _, ready := range []bool{false, true} {
			url := ts.URL + "/v1/healthz"
			if ready {
				url += "?ready=1"
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			var body struct {
				Ok    bool   `json:"ok"`
				State string `json:"state"`
				Ready bool   `json:"ready"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			wantStatus := http.StatusOK
			if ready && !wantReady {
				wantStatus = http.StatusServiceUnavailable
			}
			if resp.StatusCode != wantStatus || !body.Ok || body.State != wantState || body.Ready != wantReady {
				t.Fatalf("healthz(ready=%v) = %d %+v, want status %d state %q ready %v",
					ready, resp.StatusCode, body, wantStatus, wantState, wantReady)
			}
		}
	}

	if s.Health() != Healthy {
		t.Fatalf("initial state = %v, want healthy", s.Health())
	}
	checkHealthz("healthy", true)

	// The scripted write fault trips the breaker: degraded, still ready,
	// and the request itself succeeded (fail-open).
	mustOK(t, s.Do(ctx, ksReq()))
	if s.Health() != Degraded {
		t.Fatalf("state after breaker trip = %v, want degraded", s.Health())
	}
	checkHealthz("degraded", true)
	if trips := counter(s, "serve.cache.breaker.trip"); !s.cache.DiskOffline() || trips != 1 || s.Health().String() != "degraded" {
		t.Fatalf("after trip: disk offline %v, breaker.trip %d, health %v", s.cache.DiskOffline(), trips, s.Health())
	}

	// The disk healed after write 1; with probe-every-1 the next disk op
	// (this request's Put) probes, succeeds, and closes the breaker:
	// healthy again.
	req2 := &Request{Workload: "ks", Partitioner: "dswp"}
	mustOK(t, s.Do(ctx, req2))
	if s.Health() != Healthy {
		t.Fatalf("state after probe success = %v, want healthy", s.Health())
	}
	checkHealthz("healthy", true)
	if n := counter(s, "serve.cache.breaker.close"); n != 1 {
		t.Fatalf("breaker.close = %d, want 1", n)
	}
	// Closed for real: the next request's Put reaches the disk too.
	req3 := &Request{Workload: "adpcmdec", Partitioner: "gremio"}
	mustOK(t, s.Do(ctx, req3))
	if n := counter(s, "serve.cache.write_error"); n != 1 {
		t.Fatalf("cache.write_error = %d, want only the scripted fault", n)
	}

	// Draining is terminal: not ready, still alive, still serving.
	s.BeginDrain()
	if s.Health() != Draining {
		t.Fatalf("state after BeginDrain = %v, want draining", s.Health())
	}
	checkHealthz("draining", false)
	mustOK(t, s.Do(ctx, ksReq())) // in-flight-style request still completes
	if s.Health() != Draining {
		t.Fatal("serving a request moved the state off draining")
	}
}
