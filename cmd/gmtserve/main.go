// Command gmtserve runs scheduling-as-a-service: an HTTP/JSON daemon
// that compiles and schedules IR workloads on request, deduplicates
// identical in-flight requests, and serves repeated requests from a
// persistent content-addressed artifact cache — byte-identical whether
// a response is computed cold, served warm from memory or disk, or
// merged into a concurrent request's flight.
//
// Usage:
//
//	gmtserve [-addr :8437] [-cache-dir DIR] [-mem-entries N] [-disk-entries N]
//	         [-jobs N] [-queue N] [-max-profile-steps N] [-max-measure-steps N]
//	         [-max-sim-cycles N] [-no-degrade] [-metrics out.json]
//	         [-durable] [-deadline D] [-max-deadline D] [-disk-retries N]
//	         [-breaker-faults N] [-breaker-probe N] [-trace-retain N]
//	         [-flight-dir DIR] [-access-log FILE]
//
// API (see internal/serve):
//
//	POST /v1/schedule     {"workload":"ks","partitioner":"gremio","sim":true}
//	POST /v1/batch        {"requests":[...]} -> in-order responses
//	GET  /v1/workloads    GET /v1/partitioners
//	GET  /v1/metrics      every counter, as JSON
//	GET  /v1/healthz[?ready=1]
//	GET  /v1/trace/{id}   span tree of a retained request trace
//	GET  /metrics         Prometheus text-format exposition
//
// -cache-dir "" disables the disk layer (no warmth across restarts).
// The directory holds one append-only log, entries.log: each computed
// response appends one record, and a computation that simulated a
// workload's single-threaded baseline appends one more, after its
// response: the workload's reference run and single-threaded cycles,
// which every later computation of that workload under either
// partitioner, with or without the simulator, reads instead of running
// them (serve.baseline.hit; .miss, .rejected for a record that does not
// decode for the workload, .write and .write_errors; the runs made as
// .ref_runs and .st_runs). The baseline stays out of the memory layer,
// so it never evicts a response there. Opening the cache runs a
// crash-recovery scan: the log is read once, torn or corrupt records are
// dropped (the corrupt ones quarantined) and the log rewritten without
// them, and orphaned temp files are removed, so a restart over a dirty
// directory comes up clean. A cache directory written before the log (a
// file per entry in two-character shard directories) is not read: the
// server starts cold over it, and the old shard directories can be
// deleted by hand. -durable fsyncs the log after each record, one fsync per cached
// response, so the cache survives machine crashes, not just process
// crashes. -disk-entries evicts the oldest entries first, by write
// order (serving an entry does not refresh it). Disk faults
// are retried with bounded deterministic backoff (-disk-retries), and
// after -breaker-faults consecutive failures the disk layer trips to
// memory-only mode (fail-open — requests keep serving), probing every
// -breaker-probe operations until the disk heals.
//
// Every response carries its trace ID in the X-Gmtserve-Trace header
// (and error bodies carry it inline); the span tree of the last
// -trace-retain requests is queryable at GET /v1/trace/{id}. If
// -flight-dir is set, the newest 32 of them are snapshotted atomically
// to disk on every 5xx, breaker trip, and drain. -access-log appends
// one structured JSON line per request.
//
// -deadline/-max-deadline bound per-request wall-clock time (504 on
// expiry); deadlines never enter the cache key. Every counter the
// server keeps is in one registry, served at GET /v1/metrics and
// GET /metrics; -metrics writes it on shutdown — atomically, and on
// error paths too, like every other command (a server that failed to
// start writes an empty one). SIGINT/SIGTERM mark the server
// draining (readiness false, /v1/healthz?ready=1 → 503) and drain
// in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/budget"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() { cli.Main("gmtserve", run) }

func run() (err error) {
	addr := flag.String("addr", ":8437", "listen address")
	cacheDir := flag.String("cache-dir", ".gmtserve-cache", "artifact cache directory (\"\" = memory-only)")
	memEntries := flag.Int("mem-entries", 0, "in-memory cache entries (0 = default 1024)")
	diskEntries := flag.Int("disk-entries", 0, "on-disk cache entries before the oldest written are evicted (0 = unbounded)")
	jobs := flag.Int("jobs", 0, "batch fan-out worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "bounded compute-admission queue depth (0 = default 64)")
	maxProfile := flag.Int64("max-profile-steps", 0, "per-request profile-step budget cap (0 = uncapped)")
	maxMeasure := flag.Int64("max-measure-steps", 0, "per-request measure-step budget cap (0 = uncapped)")
	maxSim := flag.Int64("max-sim-cycles", 0, "per-request simulator-cycle budget cap (0 = uncapped)")
	noDegrade := flag.Bool("no-degrade", false, "disable the graceful-degradation chain for requests that don't choose")
	metricsPath := flag.String("metrics", "", "write the metrics registry as JSON on shutdown")
	durable := flag.Bool("durable", false, "fsync the cache log after each record (crash-durable Puts)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on per-request deadlines (0 = uncapped)")
	diskRetries := flag.Int("disk-retries", 0, "transient disk-fault retries per cache op (0 = default 2, -1 = off)")
	breakerFaults := flag.Int("breaker-faults", 0, "consecutive disk faults before tripping to memory-only (0 = default 8, -1 = off)")
	breakerProbe := flag.Int("breaker-probe", 0, "probe the tripped disk every Nth operation (0 = default 16)")
	traceRetain := flag.Int("trace-retain", 0, "request traces retained for GET /v1/trace/{id} (0 = default 256)")
	flightDir := flag.String("flight-dir", "", "directory for flight-recorder dumps on 5xx/breaker/drain (\"\" = disabled)")
	accessLog := flag.String("access-log", "", "append structured JSON access-log lines to this file (\"\" = disabled)")
	flag.Parse()

	var accessW io.Writer
	if *accessLog != "" {
		f, ferr := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return fmt.Errorf("opening access log: %v", ferr)
		}
		defer f.Close()
		accessW = f
	}

	// A server that failed to start has no registry: the nil registry
	// still writes a valid, empty metrics file.
	var s *serve.Server
	defer func() {
		if *metricsPath == "" {
			return
		}
		var reg *obs.Registry
		if s != nil {
			reg = s.Metrics()
		}
		if werr := cli.WriteFileAtomic(*metricsPath, reg.WriteJSON); werr != nil && err == nil {
			err = werr
		}
	}()

	s, err = serve.New(serve.Options{
		CacheDir:    *cacheDir,
		MemEntries:  *memEntries,
		DiskEntries: *diskEntries,
		Jobs:        *jobs,
		Queue:       *queue,
		MaxBudget: budget.Budget{
			ProfileSteps: *maxProfile,
			MeasureSteps: *maxMeasure,
			SimCycles:    *maxSim,
		},
		Degrade:          !*noDegrade,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		Durable:          *durable,
		DiskRetries:      *diskRetries,
		BreakerThreshold: *breakerFaults,
		BreakerProbe:     *breakerProbe,
		TraceRetain:      *traceRetain,
		FlightDir:        *flightDir,
		AccessLog:        accessW,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "gmtserve: listening on %s (cache %s)\n", *addr, cacheDescr(*cacheDir))
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "gmtserve: shutting down, draining in-flight requests")
	s.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func cacheDescr(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}
