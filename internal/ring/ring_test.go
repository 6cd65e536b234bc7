package ring

import (
	"math/rand"
	"testing"
)

// TestFIFOAgainstSlice drives a Buf and a reference slice queue with the
// same random push/pop sequence and asserts they agree at every step —
// the property the synchronization-array queues rely on, including
// wrap-around (head/tail lap the ring many times) and growth.
func TestFIFOAgainstSlice(t *testing.T) {
	for _, initCap := range []int{0, 1, 2, 8, 32} {
		rng := rand.New(rand.NewSource(int64(initCap + 1)))
		var b Buf[int64]
		b.Init(initCap)
		var ref []int64
		for step := 0; step < 100_000; step++ {
			if b.Len() != len(ref) {
				t.Fatalf("init %d step %d: Len = %d, reference %d", initCap, step, b.Len(), len(ref))
			}
			// Bias pushes slightly so the queue laps its ring.
			if len(ref) == 0 || rng.Intn(100) < 55 {
				v := rng.Int63()
				b.Push(v)
				ref = append(ref, v)
			} else {
				got, want := b.Pop(), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("init %d step %d: Pop = %d, want %d", initCap, step, got, want)
				}
			}
		}
	}
}

// TestGrowthPreservesOrder fills past the initial capacity at a wrapped
// head position, forcing grow() to relinearize mid-ring.
func TestGrowthPreservesOrder(t *testing.T) {
	var b Buf[int]
	b.Init(4)
	if b.Cap() != 4 {
		t.Fatalf("Cap after Init(4) = %d, want 4", b.Cap())
	}
	// Advance head so the live window wraps.
	for i := 0; i < 3; i++ {
		b.Push(-1)
	}
	for i := 0; i < 3; i++ {
		b.Pop()
	}
	for i := 0; i < 40; i++ {
		b.Push(i)
	}
	if b.Len() != 40 {
		t.Fatalf("Len = %d, want 40", b.Len())
	}
	for i := 0; i < 40; i++ {
		if got := b.Pop(); got != i {
			t.Fatalf("Pop #%d = %d, want %d", i, got, i)
		}
	}
}

// TestZeroValue checks the zero Buf works without Init.
func TestZeroValue(t *testing.T) {
	var b Buf[string]
	if b.Len() != 0 {
		t.Fatalf("zero Buf Len = %d", b.Len())
	}
	b.Push("a")
	b.Push("b")
	if got := b.Pop(); got != "a" {
		t.Fatalf("Pop = %q, want a", got)
	}
	if got := b.Pop(); got != "b" {
		t.Fatalf("Pop = %q, want b", got)
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 31: 32, 32: 32, 33: 64}
	for n, want := range cases {
		if got := ceilPow2(n); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", n, got, want)
		}
	}
}
