package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// TestRecoveryCleansDirtyDirectory is the debris regression test: a
// cache opened over a pre-seeded dirty directory (orphaned temp files
// from a crashed rewrite, a record whose payload no longer matches its
// checksum, junk in mid-log, a torn tail) removes the temps, drops the
// junk, quarantines the corrupt record, rewrites the log with exactly
// the valid records, and still serves every one of them.
func TestRecoveryCleansDirtyDirectory(t *testing.T) {
	dir := t.TempDir()
	rec := func(i int) []byte {
		return encodeEntry([]byte(fmt.Sprintf("payload-%d", i)), pathKey(fmt.Sprintf("k%d", i)))
	}
	corrupt := rec(1)
	corrupt[len(corrupt)-1] ^= 0x01
	var log []byte
	log = append(log, rec(0)...)
	log = append(log, corrupt...)
	log = append(log, "not an envelope"...)
	log = append(log, rec(2)...)
	log = append(log, rec(3)[:30]...) // torn tail
	if err := os.WriteFile(logPath(dir), log, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{".tmp-1234", ".tmp-orphan"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte{byte(i)}, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	c := mustNew(t, Options{Dir: dir, MemEntries: 1, Metrics: reg.Scope("cache")})
	if v := reg.Counter("cache.recovered").Value(); v != 4 {
		t.Errorf("recovered = %d, want 4 (2 temp files, the junk, the torn tail)", v)
	}
	if v := reg.Counter("cache.quarantined").Value(); v != 1 {
		t.Errorf("quarantined = %d, want 1 (the corrupt record)", v)
	}
	if v := reg.Counter("cache.corrupt").Value(); v != 1 {
		t.Errorf("corrupt = %d, want 1", v)
	}
	if n := c.diskLen(); n != 2 {
		t.Errorf("rebuilt index holds %d records, want the 2 survivors", n)
	}
	if n := countTempFiles(dir); n != 0 {
		t.Errorf("%d temp files survived recovery", n)
	}
	// No invalid byte survives: the log is exactly the valid records.
	got, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(rec(0), rec(2)...); !bytes.Equal(got, want) {
		t.Errorf("recovered log holds %d bytes, want exactly the 2 valid records (%d bytes)", len(got), len(want))
	}
	// The quarantined record is preserved for inspection.
	if q, err := os.ReadFile(filepath.Join(dir, quarantineDir, pathKey("k1"))); err != nil || !bytes.Equal(q, corrupt) {
		t.Errorf("quarantine copy = %d bytes (err %v), want the corrupt record", len(q), err)
	}
	for i := 0; i < 4; i++ {
		got, ok := c.Get(fmt.Sprintf("k%d", i))
		if want := i == 0 || i == 2; ok != want || (ok && string(got) != fmt.Sprintf("payload-%d", i)) {
			t.Errorf("k%d served %q, %v; want served %v", i, got, ok, want)
		}
	}
}

// TestRecoveryIdempotent: a second open over an already-clean directory
// recovers nothing and changes nothing.
func TestRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Options{Dir: dir})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		c2 := mustNew(t, Options{Dir: dir, Metrics: reg.Scope("cache")})
		if v := reg.Counter("cache.recovered").Value(); v != 0 {
			t.Fatalf("open %d: recovered = %d, want 0", i, v)
		}
		if v := reg.Counter("cache.quarantined").Value(); v != 0 {
			t.Fatalf("open %d: quarantined = %d, want 0", i, v)
		}
		if n := c2.diskLen(); n != 1 {
			t.Fatalf("open %d: disk count = %d, want 1", i, n)
		}
		if after, _ := os.ReadFile(logPath(dir)); !bytes.Equal(after, before) {
			t.Fatalf("open %d rewrote a clean log", i)
		}
	}
}

// TestRetryOutlastsTransientReadFault: an EIO on the disk read path is
// retried with deterministic backoff and the retry serves the entry —
// no miss, no recompute. The Sleep hook captures the backoff schedule.
func TestRetryOutlastsTransientReadFault(t *testing.T) {
	dir := t.TempDir()
	seed := mustNew(t, Options{Dir: dir})
	payload := []byte("survives flaky reads")
	if err := seed.Put("k", payload); err != nil {
		t.Fatal(err)
	}

	var slept []time.Duration
	reg := obs.NewRegistry()
	c := mustNew(t, Options{
		Dir: dir, MemEntries: 1,
		FS:        vfs.NewFaulty(vfs.Spec{Class: vfs.ReadEIO, Seed: 1}),
		RetryBase: time.Millisecond,
		Sleep:     func(d time.Duration) { slept = append(slept, d) },
		Metrics:   reg.Scope("cache"),
	})

	// Hammer the disk path (MemEntries:1 with two keys alternating would
	// also work; here a fresh cache per Get keeps it simpler: evict the
	// memory layer by inserting another key between reads).
	faultsServed := 0
	for i := 0; i < 30; i++ {
		before := reg.Counter("cache.retry").Value()
		got, ok := c.Get("k")
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("Get %d = %q, %v; want the payload despite EIO", i, got, ok)
		}
		if reg.Counter("cache.retry").Value() > before {
			faultsServed++
		}
		c.insertMem(fmt.Sprintf("evict-%d", i), nil) // push k out of the memory layer
	}
	if faultsServed == 0 {
		t.Fatal("no read ever hit the fault schedule")
	}
	if v := reg.Counter("cache.miss").Value(); v != 0 {
		t.Fatalf("miss = %d, want 0 (every EIO outlasted by retry)", v)
	}
	// Backoff is deterministic: every recorded sleep is RetryBase << k.
	for _, d := range slept {
		if d != time.Millisecond && d != 2*time.Millisecond {
			t.Fatalf("unexpected backoff %v", d)
		}
	}
	if len(slept) == 0 {
		t.Fatal("retries recorded but no backoff slept")
	}
}

// scriptFS fails the first failWrites Append calls with EIO, then
// passes through — the "disk heals" script the breaker tests need
// (Faulty's schedules never heal).
type scriptFS struct {
	vfs.OS
	mu         sync.Mutex
	failWrites int
	writes     int
}

func (s *scriptFS) Append(path string, data []byte, durable bool) (int64, error) {
	s.mu.Lock()
	s.writes++
	fail := s.writes <= s.failWrites
	s.mu.Unlock()
	if fail {
		return 0, fmt.Errorf("scripted write fault: %w", syscall.EIO)
	}
	return s.OS.Append(path, data, durable)
}

// TestBreakerTripProbeClose drives the full breaker cycle: consecutive
// disk faults trip it (memory-only mode, OnDiskState(true)), bypassed
// operations are counted and fail open, every Nth operation probes, and
// a probe that lands after the disk heals closes it (OnDiskState(false)).
func TestBreakerTripProbeClose(t *testing.T) {
	dir := t.TempDir()
	fs := &scriptFS{failWrites: 100} // heals only after the trip
	var transitions []bool
	reg := obs.NewRegistry()
	c := mustNew(t, Options{
		Dir: dir, MemEntries: 4,
		FS:               fs,
		Retries:          -1, // each failed write = one breaker strike
		BreakerThreshold: 3,
		BreakerProbe:     4,
		OnDiskState:      func(open bool) { transitions = append(transitions, open) },
		Metrics:          reg.Scope("cache"),
	})

	// Three consecutive write faults trip the breaker. The Puts still
	// succeed into the memory layer (error reports degraded durability).
	for i := 0; i < 3; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err == nil {
			t.Fatalf("Put %d reported success during scripted faults", i)
		}
	}
	if !c.DiskOffline() {
		t.Fatal("breaker not open after threshold consecutive faults")
	}
	if v := reg.Counter("cache.breaker.trip").Value(); v != 1 {
		t.Fatalf("breaker.trip = %d, want 1", v)
	}
	if len(transitions) != 1 || !transitions[0] {
		t.Fatalf("transitions = %v, want [true]", transitions)
	}
	// Memory still serves: fail-open, not fail-closed.
	if got, ok := c.Get("k0"); !ok || !bytes.Equal(got, []byte{0}) {
		t.Fatal("memory layer lost a payload the disk rejected")
	}

	// While open, disk ops are bypassed (Put reports success — memory is
	// authoritative) except every 4th, which probes the still-dead disk.
	fs.mu.Lock()
	writesAtTrip := fs.writes
	fs.mu.Unlock()
	for i := 0; i < 7; i++ {
		if err := c.Put(fmt.Sprintf("open%d", i), []byte{byte(i)}); err != nil && !vfs.Transient(err) {
			t.Fatalf("bypassed Put failed: %v", err)
		}
	}
	if v := reg.Counter("cache.bypass").Value(); v == 0 {
		t.Fatal("no bypasses counted while the breaker was open")
	}
	if v := reg.Counter("cache.breaker.probe").Value(); v == 0 {
		t.Fatal("no probes while the breaker was open")
	}
	fs.mu.Lock()
	probesHitDisk := fs.writes - writesAtTrip
	fs.mu.Unlock()
	if probesHitDisk == 0 || probesHitDisk >= 7 {
		t.Fatalf("%d of 7 open-state Puts touched the disk, want only the probes", probesHitDisk)
	}

	// Heal the disk; the next probe closes the breaker.
	fs.mu.Lock()
	fs.failWrites = 0
	fs.mu.Unlock()
	for i := 0; i < 8 && c.DiskOffline(); i++ {
		c.Put(fmt.Sprintf("heal%d", i), []byte{byte(i)})
	}
	if c.DiskOffline() {
		t.Fatal("breaker never closed after the disk healed")
	}
	if v := reg.Counter("cache.breaker.close").Value(); v != 1 {
		t.Fatalf("breaker.close = %d, want 1", v)
	}
	if len(transitions) != 2 || transitions[1] {
		t.Fatalf("transitions = %v, want [true false]", transitions)
	}
	// Closed again: writes reach the disk and survive a restart.
	if err := c.Put("after", []byte("back online")); err != nil {
		t.Fatal(err)
	}
	c2 := mustNew(t, Options{Dir: dir, MemEntries: 1})
	if got, ok := c2.Get("after"); !ok || !bytes.Equal(got, []byte("back online")) {
		t.Fatal("post-close write did not survive a restart")
	}
}

// TestDurablePutSurvivesAfterRenameCrash: the durable mode's contract
// at the rewrite's worst crash point — after the rename, data blocks
// unsynced. A cache opens over a log with a torn tail, and its recovery
// rewrite crashes there. A Put that completed before is served intact
// in durable mode; without durability the replaced log is torn, and the
// record is dropped as junk and misses, never served.
func TestDurablePutSurvivesAfterRenameCrash(t *testing.T) {
	for _, durable := range []bool{false, true} {
		dir := t.TempDir()
		payload := bytes.Repeat([]byte("d"), 400)
		c0 := mustNew(t, Options{Dir: dir, Durable: durable})
		if err := c0.Put("k", payload); err != nil {
			t.Fatal(err)
		}
		appendJunk(t, dir, encodeEntry([]byte("torn"), pathKey("torn"))[:40])

		faulty := vfs.NewFaulty(vfs.Spec{Class: vfs.Crash, Seed: 21, CrashOp: 1, CrashStep: vfs.CrashAfterRename})
		mustNew(t, Options{Dir: dir, FS: faulty, Durable: durable, Retries: -1, BreakerThreshold: -1})
		if !faulty.Crashed() {
			t.Fatal("the recovery rewrite did not reach the crash point")
		}

		reg := obs.NewRegistry()
		c2 := mustNew(t, Options{Dir: dir, MemEntries: 1, Durable: durable, Metrics: reg.Scope("cache")})
		got, ok := c2.Get("k")
		if durable {
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("durable entry lost to an after-rename crash: %v", ok)
			}
		} else {
			if ok {
				t.Fatal("non-durable torn entry was served")
			}
			if v := reg.Counter("cache.recovered").Value(); v != 1 {
				t.Fatalf("recovered = %d, want the torn record", v)
			}
		}
	}
}

// TestDurablePutSurvivesAfterAppendCrash: the same contract at the
// append's worst crash point. The log's new length survived the crash;
// in durable mode so did the record's bytes, and it is served intact,
// while without durability its tail reads back as zeros and the record
// is quarantined and misses.
func TestDurablePutSurvivesAfterAppendCrash(t *testing.T) {
	for _, durable := range []bool{false, true} {
		dir := t.TempDir()
		faulty := vfs.NewFaulty(vfs.Spec{Class: vfs.Crash, Seed: 21, CrashOp: 1, CrashStep: vfs.CrashAfterAppend})
		c := mustNew(t, Options{Dir: dir, FS: faulty, Durable: durable, Retries: -1, BreakerThreshold: -1})
		payload := bytes.Repeat([]byte("d"), 400)
		c.Put("k", payload) // dies at the crash point

		reg := obs.NewRegistry()
		c2 := mustNew(t, Options{Dir: dir, MemEntries: 1, Durable: durable, Metrics: reg.Scope("cache")})
		got, ok := c2.Get("k")
		if durable {
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("durable entry lost to an after-append crash: %v", ok)
			}
		} else {
			if ok {
				t.Fatal("non-durable torn entry was served")
			}
			if v := reg.Counter("cache.quarantined").Value(); v != 1 {
				t.Fatalf("quarantined = %d, want the zero-filled record", v)
			}
		}
	}
}

// appendJunk appends raw bytes to the log, the way a failed append
// leaves them.
func appendJunk(t *testing.T, dir string, junk []byte) {
	t.Helper()
	f, err := os.OpenFile(logPath(dir), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
