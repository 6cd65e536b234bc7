// Package cache is the persistent, content-addressed artifact cache
// behind scheduling-as-a-service (cmd/gmtserve): response payloads are
// keyed by a fingerprint of everything that determines their bytes (IR
// content hash × partitioner × options × schema version, see Hasher) and
// stored in two layers — a bounded in-memory LRU in front of an on-disk
// store that survives process restarts.
//
// The disk layer is one append-only log per cache directory,
// entries.log, plus an in-memory index from path key to the record's
// (offset, length). A Put appends one record; a disk Get reads one span
// at an offset; a lookup for a key the index does not hold makes no
// system call at all. Every record is a checksummed envelope that names
// its own path key, so a stale or wrong offset can only ever produce a
// miss, never another key's bytes.
//
// The durability contract is checksum-or-absent: opening the store reads
// the log once, verifies every record, and rewrites it (atomically, temp
// + rename) without the torn tail, the junk of a failed append, or the
// records whose checksum fails — those are quarantined. A record that
// reads back invalid later is quarantined and reported as a miss — never
// served. The cache stores opaque bytes and never re-serializes them,
// which is what lets the serving layer promise byte-identical responses
// whether a request is served cold, warm from memory, warm from disk, or
// merged into another request's flight (see Group).
//
// Every disk touch goes through an internal/vfs filesystem, so tests
// inject seeded faults (full disk, EIO, torn writes, crash points); the
// cache answers with bounded deterministic retries for transient faults
// and a circuit breaker that trips the disk layer to memory-only mode
// after too many consecutive faults, probing its way back. Disk failure
// therefore degrades warmth, never correctness or availability.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// entryMagic versions the on-disk envelope (not the payload schema —
// that is the caller's SchemaVersion, hashed into the key). Bump it only
// if the envelope framing itself changes; old records then read as
// junk, i.e. misses.
const entryMagic = "gmtcache1"

// logName is the cache directory's one data file.
const logName = "entries.log"

// quarantineDir, under the cache root, receives copies of records that
// fail validation, named by their path key, so operators can inspect
// what the disk did to the bytes.
const quarantineDir = "quarantine"

// Options configures a Cache.
type Options struct {
	// Dir is the on-disk store root; "" disables the disk layer (the
	// cache is then memory-only and does not survive restarts).
	Dir string
	// MemEntries bounds the in-memory LRU layer; <= 0 means 1024.
	MemEntries int
	// DiskEntries bounds the on-disk store; <= 0 means unbounded. When
	// the bound is exceeded the oldest entries by write order are
	// evicted (a Get never refreshes an entry). Eviction order never
	// affects response bytes — an evicted entry is simply recomputed.
	DiskEntries int
	// FS abstracts every disk touch; nil means the host filesystem
	// (vfs.OS). Tests inject a vfs.Faulty here.
	FS vfs.FS
	// Durable fsyncs the log after each appended record (and the
	// directory when the log is created or replaced), so a completed
	// Put survives a machine crash, at the cost of one fsync per write.
	// Without it a crash can tear the last records — the open-time scan
	// and checksums then turn them into misses.
	Durable bool
	// Retries bounds per-operation retries of transient disk faults
	// (vfs.Transient); 0 means the default 2, < 0 disables retries.
	Retries int
	// RetryBase is the deterministic backoff unit: retry k sleeps
	// RetryBase << k. 0 means 2ms.
	RetryBase time.Duration
	// Sleep replaces time.Sleep in the backoff path (test hook).
	Sleep func(time.Duration)
	// BreakerThreshold trips the disk layer to memory-only mode after
	// this many consecutive disk faults; 0 means the default 8, < 0
	// disables the breaker.
	BreakerThreshold int
	// BreakerProbe, while the breaker is open, lets every Nth
	// disk-layer operation through as a probe; a probe that succeeds
	// closes the breaker. 0 means the default 16.
	BreakerProbe int
	// OnDiskState, when non-nil, is called on every breaker transition;
	// open=true means the disk layer just went offline. Calls are
	// serialized under the breaker's lock, so transitions arrive in
	// order; the callback must not call back into the cache.
	OnDiskState func(open bool)
	// Metrics, when non-nil, receives the cache counters: hit.mem,
	// hit.disk, miss, corrupt, evict.mem, evict.disk, recovered,
	// quarantined, read_error, write_error, retry, bypass,
	// breaker.trip, breaker.probe, breaker.close. All but evict.* and
	// recovered are also a field of each call's OpEvents.
	Metrics *obs.Scope
}

// OpEvents collects the fault-handling events of a single cache call so
// the serving layer can attribute them to one request's trace. Each event
// is recorded once, into the call's OpEvents and the registry counter of
// the same event together (which aggregate across all requests and cannot
// say which request paid for a retry). An OpEvents must not be shared
// between concurrent calls.
type OpEvents struct {
	// Layer reports where a Get was answered: "mem", "disk", or "miss".
	Layer string
	// Retries counts transient-fault retries inside this call.
	Retries int64
	// ReadErrors and WriteErrors count disk faults that survived the
	// retry budget.
	ReadErrors  int64
	WriteErrors int64
	// Corrupt counts invalid envelopes this call tripped over.
	Corrupt int64
	// Quarantined counts envelopes this call moved to quarantine.
	Quarantined int64
	// Bypass counts disk accesses the open breaker suppressed.
	Bypass int64
	// Probes counts breaker probes this call performed.
	Probes int64
	// BreakerTrips and BreakerCloses count breaker transitions this
	// call caused.
	BreakerTrips  int64
	BreakerCloses int64
}

// Cache is a two-layer (memory LRU + disk log) content-addressed byte
// store. All methods are safe for concurrent use.
//
// Several Cache values, in one process or many, may share a directory:
// appends never overwrite each other, and each sees the others' records
// after it reopens. A rewrite by one of them drops the records the
// others appended since it opened, which only costs those entries.
type Cache struct {
	opts      Options
	fs        vfs.FS
	retries   int
	retryBase time.Duration
	sleep     func(time.Duration)
	brk       breaker
	log       string // path of entries.log; "" without a disk layer

	mu  sync.Mutex // guards the memory layer
	mem map[string]*list.Element
	lru list.List // front = most recently used

	// logMu guards the index and serializes every log access, so no
	// rewrite moves a record under a reader.
	logMu sync.Mutex
	index map[string]*list.Element // path key → its *record in order
	order list.List                // live records in write order, front = oldest
	live  int64                    // bytes of the live records
	dead  int64                    // bytes the log holds for superseded, evicted or quarantined records
}

type memEntry struct {
	key     string
	payload []byte
}

// record locates one live envelope in the log.
type record struct {
	pk  string
	off int64
	n   int64
}

// New opens (creating if needed) a cache rooted at opts.Dir and runs the
// crash-recovery scan (see open).
func New(opts Options) (*Cache, error) {
	if opts.MemEntries <= 0 {
		opts.MemEntries = 1024
	}
	c := &Cache{opts: opts, mem: map[string]*list.Element{}}
	c.fs = opts.FS
	if c.fs == nil {
		c.fs = vfs.OS{}
	}
	switch {
	case opts.Retries < 0:
		c.retries = 0
	case opts.Retries == 0:
		c.retries = 2
	default:
		c.retries = opts.Retries
	}
	c.retryBase = opts.RetryBase
	if c.retryBase == 0 {
		c.retryBase = 2 * time.Millisecond
	}
	c.sleep = opts.Sleep
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	c.brk.init(opts.BreakerThreshold, opts.BreakerProbe, opts.OnDiskState)
	if opts.Dir != "" {
		if err := c.fs.MkdirAll(opts.Dir); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		c.log = filepath.Join(opts.Dir, logName)
		c.index = map[string]*list.Element{}
		if err := c.open(); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	return c, nil
}

// DiskOffline reports whether the circuit breaker currently has the
// disk layer tripped to memory-only mode.
func (c *Cache) DiskOffline() bool { return c.brk.isOpen() }

// pathKey is the content address of a key: its SHA-256, in hex. Keys are
// usually already fingerprints (see Hasher), but hashing again gives
// every key a fixed-size, separator-free name inside its record.
func pathKey(key string) string {
	s := sha256.Sum256([]byte(key))
	return hex.EncodeToString(s[:])
}

// count records one event of a cache call: n is the call's OpEvents
// field for it, counter the aggregate registry counter.
func (c *Cache) count(n *int64, counter string) {
	*n++
	c.opts.Metrics.Counter(counter).Inc()
}

// withRetry runs a disk operation with bounded deterministic backoff on
// transient faults: retry k sleeps RetryBase << k.
func (c *Cache) withRetry(ev *OpEvents, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !vfs.Transient(err) || attempt >= c.retries {
			return err
		}
		c.count(&ev.Retries, "retry")
		c.sleep(c.retryBase << attempt)
	}
}

// diskResult feeds one disk-operation outcome to the breaker and counts
// any transition it caused.
func (c *Cache) diskResult(err error, ev *OpEvents) {
	switch c.brk.result(err == nil) {
	case +1:
		c.count(&ev.BreakerTrips, "breaker.trip")
	case -1:
		c.count(&ev.BreakerCloses, "breaker.close")
	}
}

// allowDisk asks the breaker whether this operation may touch the disk,
// counting bypasses and probes.
func (c *Cache) allowDisk(ev *OpEvents) bool {
	allow, probe := c.brk.allow()
	if !allow {
		c.count(&ev.Bypass, "bypass")
		return false
	}
	if probe {
		c.count(&ev.Probes, "breaker.probe")
	}
	return true
}

// answer records which layer answered a lookup, and counts it when the
// lookup was for a response.
func (c *Cache) answer(ev *OpEvents, layer, counter string, response bool) {
	ev.Layer = layer
	if response {
		c.opts.Metrics.Counter(counter).Inc()
	}
}

// readError counts a disk read fault that survived the retries.
func (c *Cache) readError(err error, ev *OpEvents) {
	c.count(&ev.ReadErrors, "read_error")
	c.diskResult(err, ev)
}

// writeError counts a disk write fault that survived the retries.
func (c *Cache) writeError(err error, ev *OpEvents) {
	c.count(&ev.WriteErrors, "write_error")
	c.diskResult(err, ev)
}

// Get returns the payload stored under key. The second result reports
// whether the key was present (in either layer) with a valid checksum;
// a corrupt or truncated disk record is quarantined and reported as a
// miss, and a disk read fault — after retries — degrades to a miss
// rather than an error (fail-open: the caller recomputes).
func (c *Cache) Get(key string) ([]byte, bool) {
	var ev OpEvents
	return c.GetEv(key, &ev)
}

// GetEv is Get with per-call event capture: retries, faults, breaker
// activity, and the answering layer are recorded into ev as well as into
// the aggregate registry counters.
func (c *Cache) GetEv(key string, ev *OpEvents) ([]byte, bool) {
	return c.get(key, ev, true)
}

// Lookup and Store keep a second kind of record beside the responses
// GetEv and PutEv keep. Such a record counts no layer counter (hit.mem,
// hit.disk, miss), so those keep counting response lookups only; every
// fault event still counts, and ev records the answering layer. With a
// disk layer it stays out of the memory layer, so it never evicts a
// response there; without one, the memory layer is where it lives.

// Lookup is GetEv for a record Store wrote.
func (c *Cache) Lookup(key string, ev *OpEvents) ([]byte, bool) {
	return c.get(key, ev, false)
}

// Store is PutEv for a record Lookup reads.
func (c *Cache) Store(key string, payload []byte, ev *OpEvents) error {
	return c.put(key, payload, ev, c.log == "")
}

// get answers a lookup of key for GetEv (response) or Lookup. Only a
// response read from disk is promoted to the memory layer.
func (c *Cache) get(key string, ev *OpEvents, response bool) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.mem[key]; ok {
		c.lru.MoveToFront(el)
		p := el.Value.(*memEntry).payload
		out := append([]byte(nil), p...)
		c.mu.Unlock()
		c.answer(ev, "mem", "hit.mem", response)
		return out, true
	}
	c.mu.Unlock()

	var payload []byte
	ok := false
	if c.log != "" {
		payload, ok = c.getDisk(pathKey(key), ev)
	}
	if !ok {
		c.answer(ev, "miss", "miss", response)
		return nil, false
	}
	if response {
		c.insertMem(key, payload)
		payload = append([]byte(nil), payload...)
	}
	c.answer(ev, "disk", "hit.disk", response)
	return payload, true
}

// getDisk reads and verifies the record the index holds for pk. A key
// the index does not hold costs no system call.
func (c *Cache) getDisk(pk string, ev *OpEvents) ([]byte, bool) {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	el, ok := c.index[pk]
	if !ok || !c.allowDisk(ev) {
		return nil, false
	}
	rec := el.Value.(*record)
	var raw []byte
	err := c.withRetry(ev, func() (err error) {
		raw, err = c.fs.ReadAt(c.log, rec.off, int(rec.n))
		return err
	})
	switch {
	case os.IsNotExist(err):
		// The log is gone: an honest "not there" is a healthy answer.
		c.diskResult(nil, ev)
		return nil, false
	case err != nil && !errors.Is(err, io.ErrUnexpectedEOF):
		c.readError(err, ev)
		return nil, false
	}
	c.diskResult(nil, ev)
	if payload, ok := decodeEntry(raw, pk); ok {
		return payload, true
	}
	// Torn, tampered, or cut short by a log that ends inside it.
	c.count(&ev.Corrupt, "corrupt")
	c.drop(el)
	c.quarantine(pk, raw, ev)
	return nil, false
}

// Put stores payload under key in both layers. The payload is copied;
// later mutation of the argument does not affect the cache. A disk-layer
// failure is reported but the memory layer already holds the bytes, so
// callers treat the error as degraded durability, not a failed store.
func (c *Cache) Put(key string, payload []byte) error {
	var ev OpEvents
	return c.PutEv(key, payload, &ev)
}

// PutEv is Put with per-call event capture into ev.
func (c *Cache) PutEv(key string, payload []byte, ev *OpEvents) error {
	return c.put(key, payload, ev, true)
}

// put stores payload under key on disk, and in the memory layer if mem.
func (c *Cache) put(key string, payload []byte, ev *OpEvents, mem bool) error {
	p := append([]byte(nil), payload...)
	if mem {
		c.insertMem(key, p)
	}
	if c.log == "" || !c.allowDisk(ev) {
		return nil
	}
	pk := pathKey(key)
	data := encodeEntry(p, pk)
	c.logMu.Lock()
	defer c.logMu.Unlock()
	var off int64
	err := c.withRetry(ev, func() (err error) {
		off, err = c.fs.Append(c.log, data, c.opts.Durable)
		return err
	})
	if err != nil {
		c.writeError(err, ev)
		return fmt.Errorf("cache: writing %s: %w", pk[:12], err)
	}
	c.diskResult(nil, ev)
	c.add(pk, off, int64(len(data)))
	c.evictOldest(c.order.Len() - c.opts.DiskEntries)
	if c.needsCompaction() {
		// The record is in the log whether or not the rewrite lands.
		c.compact(ev)
	}
	return nil
}

// insertMem adds (or refreshes) a memory-layer entry, evicting from the
// LRU tail past the bound.
func (c *Cache) insertMem(key string, payload []byte) {
	c.mu.Lock()
	if el, ok := c.mem[key]; ok {
		el.Value.(*memEntry).payload = payload
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.mem[key] = c.lru.PushFront(&memEntry{key: key, payload: payload})
	var evicted int64
	for c.lru.Len() > c.opts.MemEntries {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.mem, tail.Value.(*memEntry).key)
		evicted++
	}
	c.mu.Unlock()
	c.opts.Metrics.Counter("evict.mem").Add(evicted)
}

// MemLen returns the number of entries in the memory layer.
func (c *Cache) MemLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// encodeEntry wraps a payload in the checksummed envelope:
//
//	gmtcache1 <path-key> <payload-len> <payload-sha256>\n<payload>
func encodeEntry(payload []byte, pk string) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %d %s\n", entryMagic, pk, len(payload), hex.EncodeToString(sum[:]))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}
