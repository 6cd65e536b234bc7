package serve

import (
	"bytes"
	"context"
	"io/fs"
	"sync"
	"testing"

	"repro/internal/vfs"
)

// countingFS counts every filesystem call by operation and passes it to
// the host filesystem.
type countingFS struct {
	vfs.OS
	mu sync.Mutex
	n  map[string]int
}

func (f *countingFS) count(op string) {
	f.mu.Lock()
	if f.n == nil {
		f.n = map[string]int{}
	}
	f.n[op]++
	f.mu.Unlock()
}

// take returns the counts so far and starts counting afresh.
func (f *countingFS) take() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.n
	f.n = nil
	return n
}

func (f *countingFS) ReadFile(path string) ([]byte, error) {
	f.count("ReadFile")
	return f.OS.ReadFile(path)
}

func (f *countingFS) ReadAt(path string, off int64, n int) ([]byte, error) {
	f.count("ReadAt")
	return f.OS.ReadAt(path, off, n)
}

func (f *countingFS) WriteFile(path string, data []byte, durable bool) error {
	f.count("WriteFile")
	return f.OS.WriteFile(path, data, durable)
}

func (f *countingFS) Append(path string, data []byte, durable bool) (int64, error) {
	f.count("Append")
	return f.OS.Append(path, data, durable)
}

func (f *countingFS) Remove(path string) error {
	f.count("Remove")
	return f.OS.Remove(path)
}

func (f *countingFS) MkdirAll(dir string) error {
	f.count("MkdirAll")
	return f.OS.MkdirAll(dir)
}

func (f *countingFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	f.count("ReadDir")
	return f.OS.ReadDir(dir)
}

// TestDiskOpsPerRequest pins what a request costs the filesystem: a cold
// request on an empty cache makes exactly one append (its Put; both of
// its lookups miss the index and touch nothing), and a disk hit after a
// restart exactly one read at an offset.
func TestDiskOpsPerRequest(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	req := &Request{Workload: "adpcmdec"}

	cfs := &countingFS{}
	s1 := newServer(t, Options{CacheDir: dir, Degrade: true, FS: cfs})
	cfs.take() // the open's listing and read
	cold := s1.Do(ctx, req)
	mustOK(t, cold)
	if cold.Source != "cold" {
		t.Fatalf("first request source = %q, want cold", cold.Source)
	}
	if got := cfs.take(); len(got) != 1 || got["Append"] != 1 {
		t.Fatalf("a cold request made %v, want exactly one Append", got)
	}

	cfs2 := &countingFS{}
	s2 := newServer(t, Options{CacheDir: dir, Degrade: true, FS: cfs2})
	cfs2.take()
	hit := s2.Do(ctx, req)
	mustOK(t, hit)
	if st := s2.StatsSnapshot(); st.CacheHitDisk != 1 || !bytes.Equal(hit.Body, cold.Body) {
		t.Fatalf("restart: hit.disk = %d, bytes equal %v; want 1 and byte-identical", st.CacheHitDisk, bytes.Equal(hit.Body, cold.Body))
	}
	if got := cfs2.take(); len(got) != 1 || got["ReadAt"] != 1 {
		t.Fatalf("a disk hit made %v, want exactly one ReadAt", got)
	}
}

// TestDiskOpsBaseline pins what the baseline record costs the filesystem:
// a cold simulated request appends its response and then its baseline,
// and a later comm-only request for the same kernel on a new server reads
// the baseline at its offset and appends only its response.
func TestDiskOpsBaseline(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	cfs := &countingFS{}
	s1 := newServer(t, Options{CacheDir: dir, FS: cfs})
	cfs.take()
	mustOK(t, s1.Do(ctx, &Request{Workload: "adpcmdec", Sim: true}))
	if got := cfs.take(); len(got) != 1 || got["Append"] != 2 {
		t.Fatalf("a cold simulated request made %v, want exactly two Appends", got)
	}

	cfs2 := &countingFS{}
	s2 := newServer(t, Options{CacheDir: dir, FS: cfs2})
	cfs2.take()
	mustOK(t, s2.Do(ctx, &Request{Workload: "adpcmdec"}))
	if n := counter(s2, "serve.baseline.hit"); n != 1 {
		t.Fatalf("serve.baseline.hit = %d, want 1", n)
	}
	if got := cfs2.take(); len(got) != 2 || got["ReadAt"] != 1 || got["Append"] != 1 {
		t.Fatalf("a comm-only request after a simulated one made %v, want one ReadAt and one Append", got)
	}
}
