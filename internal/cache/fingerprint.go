package cache

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"
)

// Hasher builds a collision-resistant fingerprint from labeled fields.
// Every field is length-prefixed before hashing, so no concatenation of
// names and values is ambiguous ("ab"+"c" never hashes like "a"+"bc"),
// and the schema version is folded in first — bumping it invalidates
// every previously issued key at once, which is the cache's versioning
// rule: any change to what a key's payload means is a schema bump, never
// an in-place reinterpretation. The byte stream the methods document is
// itself the key format of every cache directory already written, so it
// may get cheaper to produce but never different.
type Hasher struct {
	h hash.Hash
	// w collects the rendered fields in front of h, so that SHA-256 gets
	// them a buffer at a time.
	w *bufio.Writer
}

// scratchSize is the size of the Hasher's render buffer. A request key is
// a few hundred bytes and never fills it; for a memory image a larger one
// buys nothing measurable and costs every NewHasher its allocation.
const scratchSize = 1024

// NewHasher starts a fingerprint bound to the given payload schema
// version.
func NewHasher(schema int) *Hasher {
	sum := sha256.New()
	h := &Hasher{h: sum, w: bufio.NewWriterSize(sum, scratchSize)}
	h.Int("schema", int64(schema))
	return h
}

// Field folds one labeled string into the fingerprint, as
// "<len(name)>:<name>=<len(value)>:<value>;".
func (h *Hasher) Field(name, value string) {
	h.label(name)
	h.int(int64(len(value)))
	h.w.WriteByte(':')
	h.w.WriteString(value)
	h.w.WriteByte(';')
}

// Int folds one labeled integer into the fingerprint, as the Field of its
// decimal text.
func (h *Hasher) Int(name string, v int64) {
	h.Field(name, strconv.FormatInt(v, 10))
}

// Bool folds one labeled boolean into the fingerprint, as the Field
// "true" or "false".
func (h *Hasher) Bool(name string, v bool) {
	h.Field(name, strconv.FormatBool(v))
}

// Int64s folds a labeled integer slice into the fingerprint, as
// "<len(name)>:<name>=[<len(vs)>]", then "<v>," per element, then ";".
func (h *Hasher) Int64s(name string, vs []int64) {
	h.label(name)
	h.w.WriteByte('[')
	h.int(int64(len(vs)))
	h.w.WriteByte(']')
	// A memory image is hundreds of thousands of words: render them into
	// the buffer's free space a buffer at a time, not a Write per word.
	b := h.w.AvailableBuffer()
	for _, v := range vs {
		if cap(b)-len(b) <= maxInt64Text {
			h.w.Write(b)
			h.w.Flush()
			b = h.w.AvailableBuffer()
		}
		b = append(strconv.AppendInt(b, v, 10), ',')
	}
	h.w.Write(b)
	h.w.WriteByte(';')
}

// label starts a field with "<len(name)>:<name>=".
func (h *Hasher) label(name string) {
	h.int(int64(len(name)))
	h.w.WriteByte(':')
	h.w.WriteString(name)
	h.w.WriteByte('=')
}

// maxInt64Text is the length of math.MinInt64 in decimal.
const maxInt64Text = 20

// int renders v in decimal straight into the buffer's free space, which
// is flushed first if the longest int64 might not fit.
func (h *Hasher) int(v int64) {
	if h.w.Available() < maxInt64Text {
		h.w.Flush()
	}
	h.w.Write(strconv.AppendInt(h.w.AvailableBuffer(), v, 10))
}

// Sum returns the fingerprint as 64 hex characters.
func (h *Hasher) Sum() string {
	h.w.Flush()
	return hex.EncodeToString(h.h.Sum(nil))
}
