// Package ring provides the fixed-overhead FIFO ring buffer behind the
// synchronization-array queues of both the multi-threaded interpreter and
// the cycle-level simulator. The previous queue representation — a Go
// slice re-sliced on every pop and appended on every push — reallocated
// its backing array every few hundred operations and, in the simulator,
// retained every value ever produced. A power-of-two ring with monotonic
// head/tail indices makes push and pop branch-free index arithmetic with
// zero steady-state allocation, which is what the paper's "fast
// synchronization array communication" model demands of the hot path.
package ring

// Buf is a growable FIFO queue over a power-of-two ring. The zero value is
// an empty queue; Init pre-sizes it. Buf is not safe for concurrent use.
//
// Capacity grows by doubling when a Push finds the ring full, preserving
// FIFO order. Growth only happens when occupancy exceeds the Init hint —
// in this codebase only under injected faults (dup-produce and swap-queue
// can push past the architectural queue capacity the interpreter checks).
type Buf[T any] struct {
	buf  []T
	head uint64 // index of the next Pop, monotonically increasing
	tail uint64 // index of the next Push, monotonically increasing
}

// Init makes b an empty buffer with room for at least min elements
// before it grows.
func (b *Buf[T]) Init(min int) {
	*b = Buf[T]{buf: make([]T, ceilPow2(min))}
}

// Len returns the number of buffered elements.
func (b *Buf[T]) Len() int { return int(b.tail - b.head) }

// Cap returns the current ring capacity.
func (b *Buf[T]) Cap() int { return len(b.buf) }

// Push appends v, growing the ring if it is full.
func (b *Buf[T]) Push(v T) {
	if int(b.tail-b.head) == len(b.buf) {
		b.grow()
	}
	b.buf[b.tail&uint64(len(b.buf)-1)] = v
	b.tail++
}

// Pop removes and returns the oldest element. It must not be called on an
// empty buffer.
func (b *Buf[T]) Pop() T {
	v := b.buf[b.head&uint64(len(b.buf)-1)]
	b.head++
	return v
}

// grow doubles the ring, copying the live elements in FIFO order.
func (b *Buf[T]) grow() {
	n := len(b.buf)
	if n == 0 {
		b.buf = make([]T, 1)
		return
	}
	nb := make([]T, 2*n)
	live := int(b.tail - b.head)
	for i := 0; i < live; i++ {
		nb[i] = b.buf[(b.head+uint64(i))&uint64(n-1)]
	}
	b.buf = nb
	b.head, b.tail = 0, uint64(live)
}

// ceilPow2 returns the smallest power of two >= n (and >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
