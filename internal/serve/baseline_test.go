package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/vfs"
	"repro/internal/workloads"
)

// baselineWork is what one request cost in baseline work and what its
// baseline lookup found.
type baselineWork struct {
	refRuns, stRuns int64
	layer           string // the baseline.lookup span's layer; "" without a computation
}

// doCounted serves req on s and reports the baseline work the request did.
func doCounted(t *testing.T, s *Server, req *Request) (Result, baselineWork) {
	t.Helper()
	ref0, st0 := counter(s, "serve.baseline.ref_runs"), counter(s, "serve.baseline.st_runs")
	res := s.Do(context.Background(), req)
	mustOK(t, res)
	return res, baselineWork{
		refRuns: counter(s, "serve.baseline.ref_runs") - ref0,
		stRuns:  counter(s, "serve.baseline.st_runs") - st0,
		layer:   spanAttr(t, s, res.TraceID, "baseline.lookup", "layer"),
	}
}

// spanAttr reads one string attribute of the first span called name in a
// retained trace; "" when there is no such span.
func spanAttr(t *testing.T, s *Server, id, name, attr string) string {
	t.Helper()
	raw, ok := s.traces.Get(id)
	if !ok {
		t.Fatalf("trace %s not retained", id)
	}
	var doc struct {
		Spans []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, sp := range doc.Spans {
		if sp.Name == name {
			v, _ := sp.Attrs[attr].(string)
			return v
		}
	}
	return ""
}

// TestBaselineSharedAcrossRequests: two kernels and an inline program over
// one directory, one server per partitioner as in the warm_zipf prewarm,
// each server asked for every workload with the simulator and then
// without. The first server runs each workload's baseline once, in its
// simulated request, and its comm-only request seeds from the record; the
// second server runs no baseline at all. The record lives on disk alone,
// so every lookup after the first reads it there. Every body equals a
// fresh single-request server's, on servers with room for every response
// in memory and with room for one (MemEntries 1), and after a restart.
func TestBaselineSharedAcrossRequests(t *testing.T) {
	inline := selfLatchSum
	reqs := []Request{{Workload: "ks"}, {Workload: "adpcmdec"}, inline}
	parts := []string{"gremio", "dswp"}
	request := func(i int, part string, sim bool) *Request {
		r := reqs[i]
		r.Partitioner, r.Sim = part, sim
		return &r
	}
	fresh := map[[3]any][]byte{}
	for i := range reqs {
		for _, part := range parts {
			for _, sim := range []bool{true, false} {
				fresh[[3]any{i, part, sim}] = freshBody(t, request(i, part, sim))
			}
		}
	}

	for _, mem := range []int{0, 1} {
		dir := t.TempDir()
		for pi, part := range parts {
			s := newServer(t, Options{CacheDir: dir, MemEntries: mem})
			for i := range reqs {
				for _, sim := range []bool{true, false} {
					res, got := doCounted(t, s, request(i, part, sim))
					if res.Source != "cold" || !bytes.Equal(res.Body, fresh[[3]any{i, part, sim}]) {
						t.Fatalf("mem %d, %s %d sim=%v: source %s, body differs from a fresh server's:\n%s\n%s",
							mem, part, i, sim, res.Source, res.Body, fresh[[3]any{i, part, sim}])
					}
					// The first simulated request of a workload runs its
					// baseline; every later request reads the record from
					// disk.
					want := baselineWork{layer: "disk"}
					if pi == 0 && sim {
						want = baselineWork{refRuns: 1, stRuns: 1, layer: "miss"}
					}
					if got != want {
						t.Errorf("mem %d, %s %d sim=%v: baseline work %+v, want %+v", mem, part, i, sim, got, want)
					}
				}
			}
			hits, writes := int64(len(reqs)), int64(len(reqs))
			if pi == 1 {
				hits, writes = 2*int64(len(reqs)), 0
			}
			for name, want := range map[string]int64{
				"serve.baseline.hit": hits, "serve.baseline.write": writes,
				"serve.baseline.miss": writes, "serve.baseline.rejected": 0,
				"serve.compute": 2 * int64(len(reqs)),
			} {
				if got := counter(s, name); got != want {
					t.Errorf("mem %d, %s server: %s = %d, want %d", mem, part, name, got, want)
				}
			}
			for _, name := range []string{"serve.cache.hit.mem", "serve.cache.hit.disk"} {
				if got := counter(s, name); got != 0 {
					t.Errorf("mem %d, %s server: %s = %d: a baseline lookup counted as a response lookup", mem, part, name, got)
				}
			}
		}

		// A restart serves every body from the cache, byte-identical.
		s := newServer(t, Options{CacheDir: dir, MemEntries: mem})
		for key, want := range fresh {
			res := s.Do(context.Background(), request(key[0].(int), key[1].(string), key[2].(bool)))
			if res.Source != "warm" || !bytes.Equal(res.Body, want) {
				t.Fatalf("mem %d, restart %v: source %s, bytes equal %v", mem, key, res.Source, bytes.Equal(res.Body, want))
			}
		}
		if st := s.StatsSnapshot(); st.Compute != 0 || st.CacheHitDisk == 0 {
			t.Errorf("mem %d, restart: compute %d, hit.disk %d; want 0 and some", mem, st.Compute, st.CacheHitDisk)
		}
	}
}

// TestBaselinePrewarmCounts replays a full warm_zipf prewarm's 44 kernel
// keys (every kernel: GREMIO with and without the simulator on one server,
// then DSWP on another over the same directory) and counts the baseline
// work: one single-threaded simulation and one reference run per kernel,
// where every computation used to run its own (22 and 44).
func TestBaselinePrewarmCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("44 kernel computations")
	}
	dir := t.TempDir()
	names := workloads.Names()
	var work baselineWork
	var hits, writes, misses int64
	for _, part := range []string{"gremio", "dswp"} {
		s := newServer(t, Options{CacheDir: dir})
		for _, sim := range []bool{true, false} {
			for _, name := range names {
				_, w := doCounted(t, s, &Request{Workload: name, Partitioner: part, Sim: sim})
				work.refRuns += w.refRuns
				work.stRuns += w.stRuns
			}
		}
		hits += counter(s, "serve.baseline.hit")
		writes += counter(s, "serve.baseline.write")
		misses += counter(s, "serve.baseline.miss")
	}
	n := int64(len(names))
	if work.stRuns != n || work.refRuns != n || hits != 3*n || writes != n || misses != n {
		t.Fatalf("%d kernels: %d single-threaded simulations, %d reference runs, %d hits, %d writes, %d misses; want %d, %d, %d, %d, %d",
			n, work.stRuns, work.refRuns, hits, writes, misses, n, n, 3*n, n, n)
	}
}

// TestBaselineMemoryLayer: a server with a disk layer keeps baseline
// records out of its memory layer, so on a server with room for one
// response a simulated request's repeat is still a memory hit; a server
// without a disk keeps the record in memory, and its comm-only request
// reads it there.
func TestBaselineMemoryLayer(t *testing.T) {
	req := &Request{Workload: "ks", Sim: true}
	s := newServer(t, Options{CacheDir: t.TempDir(), MemEntries: 1})
	first := s.Do(context.Background(), req)
	mustOK(t, first)
	again := s.Do(context.Background(), req)
	if again.Source != "warm" || !bytes.Equal(again.Body, first.Body) {
		t.Fatalf("repeat: source %s, bytes equal %v", again.Source, bytes.Equal(again.Body, first.Body))
	}
	for name, want := range map[string]int64{
		"serve.baseline.write": 1, "serve.cache.hit.mem": 1, "serve.cache.hit.disk": 0,
	} {
		if got := counter(s, name); got != want {
			t.Errorf("MemEntries 1: %s = %d, want %d", name, got, want)
		}
	}

	m := newServer(t, Options{})
	mustOK(t, m.Do(context.Background(), req))
	if _, got := doCounted(t, m, &Request{Workload: "ks"}); got != (baselineWork{layer: "mem"}) {
		t.Errorf("memory-only server, comm-only request: baseline work %+v, want a memory hit and no run", got)
	}
}

// ksBaseline returns the ks kernel, its baseline key on a default server
// and the record a simulated computation writes for it.
func ksBaseline(t *testing.T) (*workloads.Workload, string, []byte) {
	t.Helper()
	w, err := workloads.ByName("ks")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Options{})
	key := baselineKey(w, Budget{}.toBudget(s.maxBudget))
	mustOK(t, s.Do(context.Background(), &Request{Workload: "ks", Sim: true}))
	rec, ok := s.cache.Lookup(key, &cache.OpEvents{})
	if !ok {
		t.Fatal("a simulated computation stored no baseline")
	}
	return w, key, rec
}

// TestBaselineRecordCompat: testdata/baseline_ks.bin is the format-1
// record a simulated ks computation on a default server wrote when the
// format was fixed. It decodes for ks and re-encodes to its own bytes, a
// computation today writes exactly it, and a server over a directory that
// holds it serves a fresh server's bytes without running the baseline, so
// a cache directory written by an earlier server still seeds this one.
// Regenerate only with a new record format:
//
//	go test ./internal/serve -run BaselineRecordCompat -update
func TestBaselineRecordCompat(t *testing.T) {
	w, key, rec := ksBaseline(t)
	const path = "testdata/baseline_ks.bin"
	if *updateGolden {
		if err := os.WriteFile(path, rec, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run BaselineRecordCompat -update`)", err)
	}
	b, ok := decodeBaseline(want, w)
	if !ok {
		t.Fatal("the committed record does not decode for ks")
	}
	if again := encodeBaseline(b, w); !bytes.Equal(again, want) {
		t.Fatal("the committed record does not re-encode to its own bytes")
	}
	if !bytes.Equal(rec, want) {
		t.Fatal("a simulated ks computation writes a record other than the committed one")
	}

	dir := t.TempDir()
	if err := newServer(t, Options{CacheDir: dir}).cache.Store(key, want, &cache.OpEvents{}); err != nil {
		t.Fatal(err)
	}
	req := &Request{Workload: "ks", Partitioner: "dswp", Sim: true}
	res, got := doCounted(t, newServer(t, Options{CacheDir: dir}), req)
	if !bytes.Equal(res.Body, freshBody(t, req)) {
		t.Error("a server seeded by the committed record serves other bytes than a fresh server")
	}
	if got != (baselineWork{layer: "disk"}) {
		t.Errorf("seeded by the committed record: baseline work %+v, want a disk hit and no run", got)
	}
}

// TestBaselineRecordDamaged: a damaged or foreign baseline record is a
// miss, never a wrong number. Each case leaves one bad record under ks's
// baseline key; a server over the directory then answers a simulated ks
// request with a fresh server's bytes, runs the baseline itself, counts
// what it found, and writes a good record in its place.
func TestBaselineRecordDamaged(t *testing.T) {
	_, key, good := ksBaseline(t)
	other, err := workloads.ByName("adpcmdec")
	if err != nil {
		t.Fatal(err)
	}
	so := newServer(t, Options{})
	mustOK(t, so.Do(context.Background(), &Request{Workload: "adpcmdec", Sim: true}))
	foreign, ok := so.cache.Lookup(baselineKey(other, Budget{}.toBudget(so.maxBudget)), &cache.OpEvents{})
	if !ok {
		t.Fatal("no adpcmdec baseline")
	}
	stale := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(stale, baselineFormat+1)
	req := &Request{Workload: "ks", Partitioner: "dswp", Sim: true}
	want := freshBody(t, req)

	for _, tc := range []struct {
		name    string
		rec     []byte
		flip    bool   // damage the record's bytes in the log after writing it
		counted string // the counter that records what the server found
	}{
		{"flipped byte", good, true, "serve.cache.quarantined"},
		{"truncated payload", good[:len(good)-3], false, "serve.baseline.rejected"},
		{"another function", foreign, false, "serve.baseline.rejected"},
		{"stale format", stale, false, "serve.baseline.rejected"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seeder := newServer(t, Options{CacheDir: dir})
			if err := seeder.cache.Store(key, tc.rec, &cache.OpEvents{}); err != nil {
				t.Fatal(err)
			}
			if tc.flip {
				flipLastByte(t, filepath.Join(dir, "entries.log"))
			}
			s := newServer(t, Options{CacheDir: dir})
			res, got := doCounted(t, s, req)
			if !bytes.Equal(res.Body, want) {
				t.Fatalf("body differs from a fresh server's:\n%s\n%s", res.Body, want)
			}
			if got.refRuns != 1 || got.stRuns != 1 {
				t.Errorf("baseline work %+v, want one reference run and one simulation", got)
			}
			if n := counter(s, tc.counted); n != 1 {
				t.Errorf("%s = %d, want 1", tc.counted, n)
			}
			if n := counter(s, "serve.baseline.write"); n != 1 {
				t.Errorf("serve.baseline.write = %d, want the bad record replaced", n)
			}
			if rec, ok := s.cache.Lookup(key, &cache.OpEvents{}); !ok || !bytes.Equal(rec, good) {
				t.Error("the record written in its place is not the good one")
			}
		})
	}
}

// flipLastByte flips the last byte of a file: the last payload byte of
// the last record of a cache log.
func flipLastByte(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// nthAppendFails fails the cache's nth write with EIO and passes every
// other call through.
type nthAppendFails struct {
	vfs.OS
	n, writes int
}

func (f *nthAppendFails) Append(path string, data []byte, durable bool) (int64, error) {
	f.writes++
	if f.writes == f.n {
		return 0, fmt.Errorf("scripted write fault: %w", syscall.EIO)
	}
	return f.OS.Append(path, data, durable)
}

// TestBaselineWriteFault: a failed baseline write never fails the request
// and is counted; after a failed response write the computation asks the
// disk for no second record.
func TestBaselineWriteFault(t *testing.T) {
	req := &Request{Workload: "adpcmdec", Sim: true}
	want := freshBody(t, req)
	for _, tc := range []struct {
		failing            int // the write that fails: 1 the response, 2 the baseline
		writes, writeFails int64
		appends            int
	}{
		{failing: 1, appends: 1},
		{failing: 2, writeFails: 1, appends: 2},
	} {
		fs := &nthAppendFails{n: tc.failing}
		s := newServer(t, Options{CacheDir: t.TempDir(), FS: fs, DiskRetries: -1, BreakerThreshold: -1})
		res := s.Do(context.Background(), req)
		if res.Status != 200 || !bytes.Equal(res.Body, want) {
			t.Fatalf("write %d failing: status %d, body equal to a fresh server's %v", tc.failing, res.Status, bytes.Equal(res.Body, want))
		}
		if w, we := counter(s, "serve.baseline.write"), counter(s, "serve.baseline.write_errors"); w != tc.writes || we != tc.writeFails || fs.writes != tc.appends {
			t.Errorf("write %d failing: baseline.write %d, baseline.write_errors %d, %d appends; want %d, %d, %d",
				tc.failing, w, we, fs.writes, tc.writes, tc.writeFails, tc.appends)
		}
	}
}

// TestBaselineRecordRoundTrip: a record decodes to the baseline it was
// made from, and the decoder refuses what no reference run produces.
func TestBaselineRecordRoundTrip(t *testing.T) {
	w, _, rec := ksBaseline(t)
	b, ok := decodeBaseline(rec, w)
	if !ok {
		t.Fatal("a record a computation wrote does not decode")
	}
	made, err := engineBaseline(context.Background(), exp.NewEngine(exp.EngineOptions{Jobs: 1}), w)
	if err != nil {
		t.Fatal(err)
	}
	if b.Steps != made.Steps || b.STCycles != made.STCycles {
		t.Fatalf("decoded %d steps, %d cycles; made %d, %d", b.Steps, b.STCycles, made.Steps, made.STCycles)
	}
	if !slices.Equal(b.Profile.Exits, made.Profile.Exits) {
		t.Fatalf("decoded tally %v, made %v", b.Profile.Exits, made.Profile.Exits)
	}
	if again := encodeBaseline(b, w); !bytes.Equal(again, rec) {
		t.Fatal("the decoded baseline does not re-encode to its record")
	}

	// A negative count, and more exits than steps.
	tally := baselineHeader
	for _, bad := range []int64{-1, b.Steps + 1} {
		r := append([]byte(nil), rec...)
		binary.LittleEndian.PutUint64(r[tally:], uint64(bad))
		if _, ok := decodeBaseline(r, w); ok {
			t.Errorf("a first count of %d decoded", bad)
		}
	}
	// An exit to a second successor of a block that has one.
	for i, blk := range w.F.Blocks {
		if len(blk.Succs) < 2 {
			r := append([]byte(nil), rec...)
			binary.LittleEndian.PutUint64(r[tally+16*i+8:], 1)
			if _, ok := decodeBaseline(r, w); ok {
				t.Errorf("block %d (%d successors): an exit to successor 1 decoded", i, len(blk.Succs))
			}
			break
		}
	}
}

// FuzzBaselineRecord: no bytes make the decoder panic, and what it
// accepts re-encodes to the same bytes.
func FuzzBaselineRecord(f *testing.F) {
	w, err := workloads.ByName("ks")
	if err != nil {
		f.Fatal(err)
	}
	b, err := engineBaseline(context.Background(), exp.NewEngine(exp.EngineOptions{Jobs: 1}), w)
	if err != nil {
		f.Fatal(err)
	}
	rec := encodeBaseline(b, w)
	f.Add(rec)
	f.Add(rec[:baselineHeader])
	f.Add(rec[:len(rec)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, ok := decodeBaseline(data, w)
		if !ok {
			return
		}
		if again := encodeBaseline(b, w); !bytes.Equal(again, data) {
			t.Fatalf("decoded a record that re-encodes differently (%d bytes, %d again)", len(data), len(again))
		}
	})
}
