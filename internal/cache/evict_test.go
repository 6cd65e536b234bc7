package cache

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// countFS counts every filesystem call by operation and passes it on.
type countFS struct {
	inner vfs.FS
	mu    sync.Mutex
	n     map[string]int
}

func newCountFS(inner vfs.FS) *countFS { return &countFS{inner: inner, n: map[string]int{}} }

func (f *countFS) count(op string) {
	f.mu.Lock()
	f.n[op]++
	f.mu.Unlock()
}

// calls returns how many times op ran.
func (f *countFS) calls(op string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n[op]
}

func (f *countFS) ReadFile(path string) ([]byte, error) {
	f.count("ReadFile")
	return f.inner.ReadFile(path)
}

func (f *countFS) ReadAt(path string, off int64, n int) ([]byte, error) {
	f.count("ReadAt")
	return f.inner.ReadAt(path, off, n)
}

func (f *countFS) WriteFile(path string, data []byte, durable bool) error {
	f.count("WriteFile")
	return f.inner.WriteFile(path, data, durable)
}

func (f *countFS) Append(path string, data []byte, durable bool) (int64, error) {
	f.count("Append")
	return f.inner.Append(path, data, durable)
}

func (f *countFS) Remove(path string) error {
	f.count("Remove")
	return f.inner.Remove(path)
}

func (f *countFS) MkdirAll(dir string) error {
	f.count("MkdirAll")
	return f.inner.MkdirAll(dir)
}

func (f *countFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	f.count("ReadDir")
	return f.inner.ReadDir(dir)
}

// TestDiskEvictionWriteOrder: the victim of an over-bound insert is the
// oldest record by write order — whatever the keys are called, and with
// an overwrite counting as a fresh write — and exactly one goes per
// over-bound insert.
func TestDiskEvictionWriteOrder(t *testing.T) {
	victim := func(order ...string) string {
		reg := obs.NewRegistry()
		c := mustNew(t, Options{Dir: t.TempDir(), DiskEntries: 3, MemEntries: 1, Metrics: reg.Scope("cache")})
		for _, k := range order {
			if err := c.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Put("k3", []byte("k3")); err != nil {
			t.Fatal(err)
		}
		if v := reg.Counter("cache.evict.disk").Value(); v != 1 {
			t.Fatalf("evict.disk = %d, want 1", v)
		}
		if n := c.diskLen(); n != 3 {
			t.Fatalf("disk entries = %d, want 3", n)
		}
		gone := ""
		for _, k := range []string{"k0", "k1", "k2", "k3"} {
			if _, ok := c.getDisk(pathKey(k), nil); !ok {
				if gone != "" {
					t.Fatalf("two entries evicted: %s and %s", gone, k)
				}
				gone = k
			}
		}
		return gone
	}
	if v := victim("k0", "k1", "k2"); v != "k0" {
		t.Fatalf("evicted %s, want the first written, k0", v)
	}
	if v := victim("k2", "k0", "k1"); v != "k2" {
		t.Fatalf("evicted %s, want the first written, k2", v)
	}
	// Rewriting k0 makes it the newest: k1 is now the oldest.
	if v := victim("k0", "k1", "k2", "k0"); v != "k1" {
		t.Fatalf("evicted %s, want k1 (k0 was rewritten last)", v)
	}
}

// TestDiskEvictOverRequestNoDoubleDelete: asking for more evictions than
// records drops each record exactly once and never drives the tracked
// count or live bytes negative — a double drop would make the counters
// drift and later bounds checks wrong.
func TestDiskEvictOverRequestNoDoubleDelete(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustNew(t, Options{Dir: t.TempDir(), DiskEntries: 2, MemEntries: 1, Metrics: reg.Scope("cache")})
	for i := 0; i < 2; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	evict := func(n int) {
		c.logMu.Lock()
		c.evictOldest(n)
		c.logMu.Unlock()
	}
	evict(5)
	if v := reg.Counter("cache.evict.disk").Value(); v != 2 {
		t.Fatalf("evict.disk = %d, want 2 (one per existing entry)", v)
	}
	if n := c.diskLen(); n != 0 || c.live != 0 || len(c.index) != 0 {
		t.Fatalf("after evicting everything: %d records, %d live bytes, %d indexed; want 0, 0, 0", n, c.live, len(c.index))
	}

	// A second sweep over the empty store must be a no-op, not a drift.
	evict(3)
	if v := reg.Counter("cache.evict.disk").Value(); v != 2 {
		t.Fatalf("evict.disk after empty sweep = %d, want 2", v)
	}
	if n := c.diskLen(); n != 0 || c.live != 0 {
		t.Fatalf("after empty sweep: %d records, %d live bytes; want 0, 0", n, c.live)
	}
}

// TestBoundedLogListsNoDirectory: 1 000 Puts past a 64-entry bound make
// one append each and never list a directory, compaction keeps the log
// under twice its live bytes throughout, and a restart serves exactly
// the newest 64 keys, byte-identical.
func TestBoundedLogListsNoDirectory(t *testing.T) {
	dir := t.TempDir()
	fsys := newCountFS(vfs.OS{})
	c := mustNew(t, Options{Dir: dir, DiskEntries: 64, MemEntries: 1, FS: fsys})
	listed := fsys.calls("ReadDir") // the open's one listing, for orphaned temp files
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 50+i%200) }
	const puts = 1000
	for i := 0; i < puts; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), payload(i)); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() >= 2*c.live {
			t.Fatalf("after put %d the log holds %d bytes for %d live ones", i, st.Size(), c.live)
		}
	}
	if n := fsys.calls("ReadDir") - listed; n != 0 {
		t.Fatalf("%d puts listed a directory %d times, want 0", puts, n)
	}
	if n := fsys.calls("Append"); n != puts {
		t.Fatalf("%d puts made %d appends, want one each", puts, n)
	}
	if fsys.calls("WriteFile") == 0 {
		t.Fatal("no compaction ran in 1000 puts past the bound")
	}
	c2 := mustNew(t, Options{Dir: dir, DiskEntries: 64, MemEntries: 1})
	for i := 0; i < puts; i++ {
		got, ok := c2.Get(fmt.Sprintf("k%d", i))
		if want := i >= puts-64; ok != want || (ok && !bytes.Equal(got, payload(i))) {
			t.Fatalf("after restart k%d served %v, want %v (byte-identical)", i, ok, want)
		}
	}
}

// TestSingleflightJoinCountingUnderCancellation: a join is counted when
// the caller blocks on the flight, not when the flight succeeds — so a
// flight that ends in cancellation still shows the join, the joiner gets
// the leader's error, and the completed flight is forgotten either way.
func TestSingleflightJoinCountingUnderCancellation(t *testing.T) {
	var g Group
	started := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, err, _ := g.Do("key", func() ([]byte, error) {
			close(started)
			<-release
			return nil, context.Canceled
		})
		leaderDone <- err
	}()
	<-started

	joinerDone := make(chan struct{})
	var jerr error
	var jmerged bool
	go func() {
		_, jerr, jmerged = g.Do("key", func() ([]byte, error) {
			t.Error("joiner ran the flight function")
			return nil, nil
		})
		close(joinerDone)
	}()

	// Join-time counting: the merge is visible while the flight is still
	// open (and about to be cancelled).
	for g.Merged() != 1 {
		runtime.Gosched()
	}
	close(release)
	<-joinerDone

	if err := <-leaderDone; err != context.Canceled {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if !jmerged {
		t.Fatal("joiner was not marked merged")
	}
	if jerr != context.Canceled {
		t.Fatalf("joiner error = %v, want the leader's context.Canceled", jerr)
	}
	if g.Merged() != 1 {
		t.Fatalf("Merged = %d, want 1 (completion must not re-count)", g.Merged())
	}
	// The cancelled flight is forgotten: a fresh call runs fresh.
	ran := false
	_, _, merged := g.Do("key", func() ([]byte, error) { ran = true; return nil, nil })
	if merged || !ran {
		t.Fatalf("post-cancellation call merged=%v ran=%v, want fresh execution", merged, ran)
	}
}

// TestConcurrentDiskAccess races Puts, disk Gets and the evictions and
// compactions they trigger on one bounded log; run under -race. Every
// Get either misses or returns its key's payload.
func TestConcurrentDiskAccess(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Options{Dir: dir, DiskEntries: 8, MemEntries: 1})
	payload := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 20+k) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + w) % 12
				key := fmt.Sprintf("k%d", k)
				if err := c.Put(key, payload(k)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := c.Get(fmt.Sprintf("k%d", (k+5)%12)); ok && !bytes.Equal(got, payload((k+5)%12)) {
					t.Errorf("served %x for k%d", got, (k+5)%12)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c2 := mustNew(t, Options{Dir: dir, MemEntries: 1})
	for k := 0; k < 12; k++ {
		if got, ok := c2.Get(fmt.Sprintf("k%d", k)); ok && !bytes.Equal(got, payload(k)) {
			t.Fatalf("after restart k%d served %x", k, got)
		}
	}
	if n := c2.diskLen(); n < 8 {
		t.Fatalf("restart indexes %d records, want at least the 8 the bound kept", n)
	}
}
