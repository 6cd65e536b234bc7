package cache

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/obs"
)

// fuzzKeys name the records of FuzzOpenLog's seeds.
var fuzzKeys = []string{"k0", "k1", "k2"}

func fuzzPayload(i int) []byte {
	return []byte(fmt.Sprintf(`{"entry":%d,"pad":"%0*d"}`, i, 40+i*30, 0))
}

// servedRecords opens the cache directory and returns what it serves by
// path key, failing the test unless every served payload came out of
// input as a whole, verifying envelope.
func servedRecords(t *testing.T, dir string, input []byte, reg *obs.Registry) map[string]string {
	t.Helper()
	c, err := New(Options{Dir: dir, MemEntries: 1, Metrics: reg.Scope("cache")})
	if err != nil {
		t.Fatalf("New failed on the log: %v", err)
	}
	c.logMu.Lock()
	var pks []string
	for pk := range c.index {
		pks = append(pks, pk)
	}
	c.logMu.Unlock()
	served := map[string]string{}
	for _, pk := range pks {
		payload, ok := c.getDisk(pk, nil)
		if !ok {
			continue
		}
		if !bytes.Contains(input, encodeEntry(payload, pk)) {
			t.Fatalf("served %d bytes under %s that the log never held as a valid record", len(payload), pk[:12])
		}
		served[pk] = string(payload)
	}
	for i, k := range fuzzKeys {
		if got, ok := c.Get(k); ok && !bytes.Equal(got, fuzzPayload(i)) {
			t.Fatalf("%s served %q, want %q or a miss", k, got, fuzzPayload(i))
		}
	}
	return served
}

// FuzzOpenLog takes arbitrary bytes as entries.log. Opening never panics
// or fails on the content, every served record is a valid envelope the
// input held, and the recovered directory is a fixed point: a second
// open recovers and quarantines nothing and serves the same records.
func FuzzOpenLog(f *testing.F) {
	var clean []byte
	for i, k := range fuzzKeys {
		clean = append(clean, encodeEntry(fuzzPayload(i), pathKey(k))...)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-7]) // torn tail
	hole := bytes.Clone(clean)
	mid := len(encodeEntry(fuzzPayload(0), pathKey(fuzzKeys[0])))
	clear(hole[mid+20 : mid+120]) // zero-filled hole in the middle record
	f.Add(hole)
	flip := bytes.Clone(clean)
	flip[len(flip)-5] ^= 0x01 // one payload byte of the last record
	f.Add(flip)

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(logPath(dir), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		first := servedRecords(t, dir, raw, obs.NewRegistry())
		rewritten, err := os.ReadFile(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scanLog(rewritten) {
			if s.kind != spanValid {
				t.Fatalf("recovered log holds %d invalid bytes at %d", s.n, s.off)
			}
		}
		reg := obs.NewRegistry()
		second := servedRecords(t, dir, raw, reg)
		for _, name := range []string{"recovered", "quarantined", "corrupt"} {
			if v := reg.Counter("cache." + name).Value(); v != 0 {
				t.Fatalf("second open: %s = %d, want 0", name, v)
			}
		}
		if len(first) != len(second) {
			t.Fatalf("first open served %d records, second %d", len(first), len(second))
		}
		for pk, p := range first {
			if second[pk] != p {
				t.Fatalf("record %s changed between opens", pk[:12])
			}
		}
	})
}
