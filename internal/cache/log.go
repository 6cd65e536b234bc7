package cache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
)

// The log holds envelopes back to back:
//
//	gmtcache1 <path-key> <payload-len> <payload-sha256>\n<payload>
//
// A record is found by scanning from the start of the file, and every
// record is self-delimiting by its length, so the log needs no framing
// of its own. Bytes that do not form a valid envelope — the tail of a
// crashed append, the prefix a full disk kept, a record whose payload
// no longer matches its checksum — are skipped by resynchronizing at
// the next magic.

// logMagic starts every record.
var logMagic = []byte(entryMagic + " ")

// maxHeader bounds the search for a header's newline: the magic, two
// 64-digit hex fields, a length of at most 18 digits and three
// separators.
const maxHeader = len(entryMagic) + 1 + 64 + 1 + 18 + 1 + 64 + 1

// header is a parsed envelope header.
type header struct {
	size int    // bytes up to and including the newline
	pk   []byte // path key, 64 lowercase hex digits
	n    int    // payload length
	sum  []byte // payload SHA-256, 64 lowercase hex digits
}

// parseHeader parses the envelope header raw starts with. It accepts
// only what encodeEntry writes: lowercase hex and a length without sign
// or leading zeros.
func parseHeader(raw []byte) (header, bool) {
	line := raw[:min(len(raw), maxHeader)]
	nl := bytes.IndexByte(line, '\n')
	if nl < 0 {
		return header{}, false
	}
	rest, ok := bytes.CutPrefix(line[:nl], logMagic)
	if !ok {
		return header{}, false
	}
	pk, rest, _ := bytes.Cut(rest, []byte{' '})
	num, sum, _ := bytes.Cut(rest, []byte{' '})
	if !isHex64(pk) || !isHex64(sum) || len(num) == 0 || len(num) > 18 || (num[0] == '0' && len(num) > 1) {
		return header{}, false
	}
	n := 0
	for _, d := range num {
		if d < '0' || d > '9' {
			return header{}, false
		}
		n = n*10 + int(d-'0')
	}
	return header{size: nl + 1, pk: pk, n: n, sum: sum}, true
}

func isHex64(b []byte) bool {
	if len(b) != 64 {
		return false
	}
	for _, d := range b {
		if (d < '0' || d > '9') && (d < 'a' || d > 'f') {
			return false
		}
	}
	return true
}

// sumMatches reports whether payload hashes to the hex digest sum.
func sumMatches(payload, sum []byte) bool {
	s := sha256.Sum256(payload)
	var h [64]byte
	hex.Encode(h[:], s[:])
	return bytes.Equal(h[:], sum)
}

// decodeEntry validates one envelope: magic, key binding, length, and
// payload checksum must all match, otherwise the record is corrupt.
func decodeEntry(raw []byte, pk string) ([]byte, bool) {
	h, ok := parseHeader(raw)
	if !ok || string(h.pk) != pk || h.size+h.n != len(raw) {
		return nil, false
	}
	payload := raw[h.size:]
	if !sumMatches(payload, h.sum) {
		return nil, false
	}
	return payload, true
}

// Kinds of span a scan finds.
const (
	spanValid   = iota // a record that verifies
	spanCorrupt        // a whole record whose checksum fails
	spanJunk           // a torn tail, or bytes a failed append left
)

// span is one stretch of the log, classified.
type span struct {
	kind int
	pk   string // valid and corrupt spans only
	off  int64
	n    int64
}

// scanLog classifies every byte of the log. A header that parses with a
// payload that fits and verifies is a valid record. One whose checksum
// fails is a corrupt record — unless another magic starts inside it, in
// which case it was torn and overwritten by the next append, and the
// scan resyncs there. Anything else is junk up to the next magic.
func scanLog(raw []byte) []span {
	var out []span
	for pos := 0; pos < len(raw); {
		if h, ok := parseHeader(raw[pos:]); ok && h.n <= len(raw)-pos-h.size {
			end := pos + h.size + h.n
			s := span{kind: spanValid, pk: string(h.pk), off: int64(pos), n: int64(end - pos)}
			if !sumMatches(raw[pos+h.size:end], h.sum) {
				s.kind = spanCorrupt
			}
			if s.kind == spanValid || bytes.Index(raw[pos+1:end], logMagic) < 0 {
				out = append(out, s)
				pos = end
				continue
			}
		}
		next := len(raw)
		if i := bytes.Index(raw[pos+1:], logMagic); i >= 0 {
			next = pos + 1 + i
		}
		out = append(out, span{kind: spanJunk, off: int64(pos), n: int64(next - pos)})
		pos = next
	}
	return out
}

// open is the open-time crash-recovery pass. It removes the orphaned
// `.tmp-*` files a crashed rewrite leaves (counted under `recovered`),
// reads the log once and indexes every valid record (a later record for
// a key supersedes an earlier one), counts junk spans under `recovered`
// and corrupt records under `corrupt` and `quarantined` (the same
// accounting a Get-time discovery uses), applies the DiskEntries bound,
// and rewrites the log if it held an invalid byte or as many dead bytes
// as live ones.
//
// Unreadable or unwritable bytes never fail the open — the worst case is
// a cache that starts colder than it could. Only a failure to list the
// directory itself is an error.
func (c *Cache) open() error {
	ents, err := c.fs.ReadDir(c.opts.Dir)
	if err != nil {
		return err
	}
	var recovered int64
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-") &&
			c.fs.Remove(filepath.Join(c.opts.Dir, e.Name())) == nil {
			recovered++
		}
	}
	var ev OpEvents
	var raw []byte
	err = c.withRetry(&ev, func() (err error) {
		raw, err = c.fs.ReadFile(c.log)
		return err
	})
	if err != nil {
		if !os.IsNotExist(err) {
			c.readError(err, &ev)
		}
		c.opts.Metrics.Counter("recovered").Add(recovered)
		return nil
	}
	dirty := false
	for _, s := range scanLog(raw) {
		switch s.kind {
		case spanValid:
			c.add(s.pk, s.off, s.n)
		case spanCorrupt:
			c.count(&ev.Corrupt, "corrupt")
			c.quarantine(s.pk, raw[s.off:s.off+s.n], &ev)
			dirty = true
		case spanJunk:
			recovered++
			dirty = true
		}
	}
	c.opts.Metrics.Counter("recovered").Add(recovered)
	c.evictOldest(c.order.Len() - c.opts.DiskEntries)
	if dirty || c.needsCompaction() {
		c.rewrite(raw, &ev)
	}
	return nil
}

// add indexes a record just appended (or found by the open scan) as the
// newest; a record it supersedes becomes dead bytes. Callers hold logMu.
func (c *Cache) add(pk string, off, n int64) {
	if el, ok := c.index[pk]; ok {
		c.drop(el)
	}
	c.index[pk] = c.order.PushBack(&record{pk: pk, off: off, n: n})
	c.live += n
}

// drop takes a record out of service; its bytes stay in the log, dead,
// until the next rewrite. Callers hold logMu.
func (c *Cache) drop(el *list.Element) {
	r := c.order.Remove(el).(*record)
	delete(c.index, r.pk)
	c.live -= r.n
	c.dead += r.n
}

// evictOldest drops up to n records, oldest by write order, when the
// DiskEntries bound is set. Callers hold logMu.
func (c *Cache) evictOldest(n int) {
	if c.opts.DiskEntries <= 0 || n <= 0 {
		return
	}
	var evicted int64
	for ; n > 0 && c.order.Len() > 0; n-- {
		c.drop(c.order.Front())
		evicted++
	}
	c.opts.Metrics.Counter("evict.disk").Add(evicted)
}

// needsCompaction reports whether the log holds at least as many dead
// bytes as live ones, which keeps it under twice what it serves.
func (c *Cache) needsCompaction() bool {
	return c.dead > 0 && c.dead >= c.live
}

// compact reads the log back and rewrites it with the live records only.
// Callers hold logMu.
func (c *Cache) compact(ev *OpEvents) {
	var raw []byte
	err := c.withRetry(ev, func() (err error) {
		raw, err = c.fs.ReadFile(c.log)
		return err
	})
	if err != nil {
		c.readError(err, ev)
		return
	}
	c.rewrite(raw, ev)
}

// rewrite atomically replaces the log (temp + rename) with the live
// records, copied from raw, the log's current bytes, in write order. A
// live record whose bytes no longer verify — an append the storage tore
// while reporting success — is quarantined instead of copied. The new
// offsets take effect only if the write succeeds; until then the old
// log is still the one in place. Callers hold logMu.
func (c *Cache) rewrite(raw []byte, ev *OpEvents) {
	buf := make([]byte, 0, c.live)
	offs := make([]int64, 0, c.order.Len())
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		r := el.Value.(*record)
		end := min(r.off+r.n, int64(len(raw)))
		rec := raw[min(r.off, end):end]
		if _, ok := decodeEntry(rec, r.pk); ok {
			offs = append(offs, int64(len(buf)))
			buf = append(buf, rec...)
		} else {
			c.count(&ev.Corrupt, "corrupt")
			c.drop(el)
			c.quarantine(r.pk, rec, ev)
		}
		el = next
	}
	err := c.withRetry(ev, func() error { return c.fs.WriteFile(c.log, buf, c.opts.Durable) })
	if err != nil {
		c.writeError(err, ev)
		return
	}
	c.diskResult(nil, ev)
	i := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		el.Value.(*record).off = offs[i]
		i++
	}
	c.dead = 0
}

// quarantine copies an invalid record's bytes under quarantineDir for
// inspection. The record has already left the index, so it counts as
// quarantined whether or not the copy lands.
func (c *Cache) quarantine(pk string, raw []byte, ev *OpEvents) {
	qdir := filepath.Join(c.opts.Dir, quarantineDir)
	if c.fs.MkdirAll(qdir) == nil {
		c.fs.WriteFile(filepath.Join(qdir, pk), raw, false)
	}
	c.count(&ev.Quarantined, "quarantined")
}
