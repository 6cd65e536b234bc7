package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func mustNew(t *testing.T, opts Options) *Cache {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustNew(t, Options{Dir: t.TempDir(), Metrics: reg.Scope("cache")})
	payload := []byte(`{"answer": 42}`)
	if _, ok := c.Get("k"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	if err := c.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if v := reg.Counter("cache.hit.mem").Value(); v != 1 {
		t.Errorf("hit.mem = %d, want 1", v)
	}
	if v := reg.Counter("cache.miss").Value(); v != 1 {
		t.Errorf("miss = %d, want 1", v)
	}
}

// TestRestartDeterminism is the cross-process check: a fresh Cache over
// the same directory (a process restart) must serve byte-identical
// payloads from the disk layer.
func TestRestartDeterminism(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	payload := []byte(`{"workload":"ks","cycles":12345}`)

	c1 := mustNew(t, Options{Dir: dir})
	if err := c1.Put("req", payload); err != nil {
		t.Fatal(err)
	}

	c2 := mustNew(t, Options{Dir: dir, Metrics: reg.Scope("cache")})
	got, ok := c2.Get("req")
	if !ok {
		t.Fatal("entry did not survive restart")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("restart payload = %q, want %q", got, payload)
	}
	if v := reg.Counter("cache.hit.disk").Value(); v != 1 {
		t.Errorf("hit.disk = %d, want 1", v)
	}
	// Second read is promoted into the memory layer.
	if _, ok := c2.Get("req"); !ok {
		t.Fatal("promoted entry missing")
	}
	if v := reg.Counter("cache.hit.mem").Value(); v != 1 {
		t.Errorf("hit.mem after promotion = %d, want 1", v)
	}
}

// diskLen returns the number of live records on disk.
func (c *Cache) diskLen() int {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return c.order.Len()
}

// logPath is the cache directory's log file.
func logPath(dir string) string { return filepath.Join(dir, logName) }

// TestCorruptionIsAMiss truncates and garbles the log under an open
// cache: the record must read as a miss (never served), leave the index,
// and be rewritable.
func TestCorruptionIsAMiss(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(path string) error
	}{
		{"truncated", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, raw[:len(raw)/2], 0o644)
		}},
		{"garbage", func(p string) error {
			return os.WriteFile(p, []byte("not a cache entry at all"), 0o644)
		}},
		{"bitflip", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[len(raw)-1] ^= 0x40
			return os.WriteFile(p, raw, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			c := mustNew(t, Options{Dir: dir, Metrics: reg.Scope("cache")})
			payload := []byte(`{"v":1}`)
			if err := c.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			// A fresh cache (no memory layer) indexes the record, then the
			// disk damages it: the read must see a miss, not the bytes.
			c2 := mustNew(t, Options{Dir: dir, Metrics: reg.Scope("cache2")})
			if err := tc.corrupt(logPath(dir)); err != nil {
				t.Fatal(err)
			}
			if got, ok := c2.Get("k"); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			if v := reg.Counter("cache2.corrupt").Value(); v != 1 {
				t.Errorf("corrupt counter = %d, want 1", v)
			}
			if v := reg.Counter("cache2.quarantined").Value(); v != 1 {
				t.Errorf("quarantined counter = %d, want 1", v)
			}
			if n := c2.diskLen(); n != 0 {
				t.Errorf("index holds %d records after the corrupt read, want 0", n)
			}
			// The entry was dropped and can be rewritten and served again.
			if err := c2.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			c3 := mustNew(t, Options{Dir: dir})
			if got, ok := c3.Get("k"); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("rewritten entry = %q, %v; want %q, true", got, ok, payload)
			}
		})
	}
}

func TestMemLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustNew(t, Options{MemEntries: 2, Metrics: reg.Scope("cache")})
	for i := 0; i < 3; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.MemLen(); n != 2 {
		t.Fatalf("MemLen = %d, want 2", n)
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 should have been evicted (memory-only cache)")
	}
	if v := reg.Counter("cache.evict.mem").Value(); v != 1 {
		t.Errorf("evict.mem = %d, want 1", v)
	}
	// Touch k1 so k2 is the LRU victim on the next insert.
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 missing")
	}
	if err := c.Put("k3", []byte{3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k2"); ok {
		t.Fatal("k2 should have been evicted after k1 was touched")
	}
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 should have survived")
	}
}

func TestDiskEviction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c := mustNew(t, Options{Dir: dir, DiskEntries: 3, MemEntries: 1, Metrics: reg.Scope("cache")})
	for i := 0; i < 5; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.diskLen(); n != 3 {
		t.Fatalf("disk entries = %d, want 3", n)
	}
	if v := reg.Counter("cache.evict.disk").Value(); v != 2 {
		t.Errorf("evict.disk = %d, want 2", v)
	}
	// Restart sees the surviving count: the newest three, by write order.
	c2 := mustNew(t, Options{Dir: dir, DiskEntries: 3, MemEntries: 1})
	if n := c2.diskLen(); n != 3 {
		t.Fatalf("restart disk count = %d, want 3", n)
	}
	for i := 0; i < 5; i++ {
		got, ok := c2.Get(fmt.Sprintf("k%d", i))
		if want := i >= 2; ok != want || (ok && !bytes.Equal(got, []byte{byte(i)})) {
			t.Errorf("after restart k%d = %v, %v; want served %v", i, got, ok, want)
		}
	}
}

// TestSingleflightExactlyOnce races N concurrent identical requests and
// asserts exactly one execution; run under -race in CI.
func TestSingleflightExactlyOnce(t *testing.T) {
	var g Group
	var execs atomic.Int64
	const workers = 64
	release := make(chan struct{})
	results := make([][]byte, workers)
	mergedCount := atomic.Int64{}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, err, merged := g.Do("same-key", func() ([]byte, error) {
				execs.Add(1)
				<-release // hold the flight open until all callers arrived
				return []byte("payload"), nil
			})
			if err != nil {
				t.Error(err)
			}
			if merged {
				mergedCount.Add(1)
			}
			results[i] = val
		}(i)
	}
	// Merged() counts joins at wait time, so once it reaches workers-1
	// every non-leader is blocked on the leader's flight.
	for g.Merged() != workers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want exactly 1", n)
	}
	if mergedCount.Load() != workers-1 {
		t.Fatalf("merged callers = %d, want %d", mergedCount.Load(), workers-1)
	}
	for i, r := range results {
		if !bytes.Equal(r, []byte("payload")) {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
	// After the flight completes, a new call executes again.
	_, _, merged := g.Do("same-key", func() ([]byte, error) { return nil, nil })
	if merged {
		t.Fatal("post-flight call should not merge")
	}
}

func TestHasherFields(t *testing.T) {
	sum := func(build func(h *Hasher)) string {
		h := NewHasher(1)
		build(h)
		return h.Sum()
	}
	a := sum(func(h *Hasher) { h.Field("ab", "c") })
	b := sum(func(h *Hasher) { h.Field("a", "bc") })
	if a == b {
		t.Fatal("length prefixing failed: ab=c and a=bc collide")
	}
	if sum(func(h *Hasher) { h.Int64s("m", []int64{1, 23}) }) ==
		sum(func(h *Hasher) { h.Int64s("m", []int64{12, 3}) }) {
		t.Fatal("Int64s ambiguity: [1,23] collides with [12,3]")
	}
	// Same fields, different schema version: different key space.
	h1, h2 := NewHasher(1), NewHasher(2)
	h1.Field("k", "v")
	h2.Field("k", "v")
	if h1.Sum() == h2.Sum() {
		t.Fatal("schema version not folded into the fingerprint")
	}
	// Determinism.
	if sum(func(h *Hasher) { h.Bool("b", true); h.Int("i", 7) }) !=
		sum(func(h *Hasher) { h.Bool("b", true); h.Int("i", 7) }) {
		t.Fatal("fingerprint not deterministic")
	}
}
