// Package queue implements synchronization-array queue allocation. MTCG
// uses one queue per communicated dependence for simplicity; footnote 1 of
// the paper notes that "a queue-allocation algorithm can reduce the number
// of queues necessary" — the hardware provides only 256. This allocator
// merges communications that provably share FIFO order: same producer
// thread, same consumer thread, identical placement points. Both threads
// emit the merged operations at the same points in the same deterministic
// order, so pushes and pops still match pairwise.
package queue

import (
	"encoding/binary"
	"slices"

	"repro/internal/ir"
	"repro/internal/mtcg"
)

// Allocation reports the result of queue allocation.
type Allocation struct {
	// Before and After are the queue counts prior to and after merging.
	Before, After int
	// Mapping holds the physical queue chosen for each original queue.
	Mapping []int
}

// Allocate renumbers the queues of a generated multi-threaded program in
// place, merging mergeable communications, and returns the allocation. The
// program's thread functions and NumQueues are updated.
func Allocate(prog *mtcg.Program) Allocation {
	alloc := Allocation{
		Before:  prog.NumQueues,
		Mapping: make([]int, prog.NumQueues),
	}
	// A group's key is its producer, its consumer and its sorted points,
	// each number varint-encoded.
	groups := map[string]int{}
	var pts []mtcg.Point
	var key []byte
	next := 0
	for _, c := range prog.Comms {
		pts = append(pts[:0], c.Points...)
		slices.SortFunc(pts, func(a, b mtcg.Point) int {
			if a.Block.ID != b.Block.ID {
				return a.Block.ID - b.Block.ID
			}
			return a.Index - b.Index
		})
		key = binary.AppendVarint(binary.AppendVarint(key[:0], int64(c.Src)), int64(c.Dst))
		for _, pt := range pts {
			key = binary.AppendVarint(binary.AppendVarint(key, int64(pt.Block.ID)), int64(pt.Index))
		}
		phys, ok := groups[string(key)]
		if !ok {
			phys = next
			next++
			groups[string(key)] = phys
		}
		alloc.Mapping[c.Queue] = phys
	}
	alloc.After = next

	for _, ft := range prog.Threads {
		ft.Instrs(func(in *ir.Instr) {
			if in.Op.IsComm() {
				in.Queue = alloc.Mapping[in.Queue]
			}
		})
		ft.NumQueues = next
	}
	for _, c := range prog.Comms {
		c.Queue = alloc.Mapping[c.Queue]
	}
	prog.NumQueues = next
	return alloc
}
