package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refHasher is the Hasher as it was while every byte went through fmt,
// kept as the reference: the byte stream it hashes is the key format of
// every cache directory already on disk.
type refHasher struct{ h hash.Hash }

func newRefHasher(schema int) *refHasher {
	h := &refHasher{h: sha256.New()}
	h.Int("schema", int64(schema))
	return h
}

func (h *refHasher) Field(name, value string) {
	fmt.Fprintf(h.h, "%d:%s=%d:%s;", len(name), name, len(value), value)
}
func (h *refHasher) Int(name string, v int64) { h.Field(name, fmt.Sprintf("%d", v)) }
func (h *refHasher) Bool(name string, v bool) { h.Field(name, fmt.Sprintf("%t", v)) }
func (h *refHasher) Int64s(name string, vs []int64) {
	fmt.Fprintf(h.h, "%d:%s=[%d]", len(name), name, len(vs))
	for _, v := range vs {
		fmt.Fprintf(h.h, "%d,", v)
	}
	h.h.Write([]byte(";"))
}
func (h *refHasher) Sum() string { return hex.EncodeToString(h.h.Sum(nil)) }

// TestHasherMatchesFmtReference drives the Hasher and the reference with
// the same seeded random field sequences and wants the same sum after
// every field — including the values and sizes that sit on the edges of
// the render buffer.
func TestHasherMatchesFmtReference(t *testing.T) {
	edgeInts := []int64{0, -1, 1, 9, 10, -10, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randInt := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return edgeInts[rng.Intn(len(edgeInts))]
			case 1:
				return rng.Int63n(256) - 128 // the few digits of a real memory image
			}
			return int64(rng.Uint64())
		}
		randStr := func() string {
			// Lengths around and beyond the buffer; any byte, so the length
			// prefix is what keeps fields apart, not the content.
			n := []int{0, 1, 7, scratchSize - 30, scratchSize, scratchSize + 1, 3 * scratchSize}[rng.Intn(7)]
			b := make([]byte, n)
			rng.Read(b)
			return string(b)
		}
		randInts := func() []int64 {
			// 20-digit values fill the buffer after ~48 words, so 300 is
			// several buffers even at the widest.
			n := []int{0, 0, 1, 2, 47, 48, 49, 300, 5000}[rng.Intn(9)]
			if n == 0 && rng.Intn(2) == 0 {
				return nil
			}
			vs := make([]int64, n)
			wide := rng.Intn(3) == 0
			for i := range vs {
				if wide {
					vs[i] = math.MinInt64 + int64(rng.Intn(2))
				} else {
					vs[i] = randInt()
				}
			}
			return vs
		}

		schema := rng.Intn(5) - 1
		got, want := NewHasher(schema), newRefHasher(schema)
		var trail []string
		for step := 0; step < 30; step++ {
			name := randStr()
			if rng.Intn(4) > 0 {
				name = []string{"", "train.mem", "workload", "budget.profile"}[rng.Intn(4)]
			}
			switch rng.Intn(4) {
			case 0:
				v := randStr()
				got.Field(name, v)
				want.Field(name, v)
				trail = append(trail, fmt.Sprintf("Field(%d bytes, %d bytes)", len(name), len(v)))
			case 1:
				v := randInt()
				got.Int(name, v)
				want.Int(name, v)
				trail = append(trail, fmt.Sprintf("Int(%d bytes, %d)", len(name), v))
			case 2:
				v := rng.Intn(2) == 0
				got.Bool(name, v)
				want.Bool(name, v)
				trail = append(trail, fmt.Sprintf("Bool(%d bytes, %t)", len(name), v))
			case 3:
				vs := randInts()
				got.Int64s(name, vs)
				want.Int64s(name, vs)
				trail = append(trail, fmt.Sprintf("Int64s(%d bytes, %d words)", len(name), len(vs)))
			}
			// Sum is also a flush: taking it mid-sequence must not disturb
			// what follows.
			if g, w := got.Sum(), want.Sum(); g != w {
				t.Fatalf("seed %d: sums part after %s\n got  %s\n want %s", seed, strings.Join(trail, ", "), g, w)
			}
		}
	}
}
