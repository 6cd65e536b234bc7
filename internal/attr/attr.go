// Package attr defines the cycle-attribution taxonomy shared by the
// cycle-level simulator and the profiler (internal/profile). Every simulated
// core-cycle is tagged with exactly one cause Bucket, so the bucket sums
// obey an exact conservation invariant: per core they equal the run's cycle
// count. The profiler's speedup-explanation reports rest on that invariant —
// a delta in total cycles decomposes exactly into per-bucket deltas.
//
// attr is a leaf package: sim fills attr.Run values and profile consumes
// them, without the simulator having to know about the profiler.
package attr

import "fmt"

// Bucket is one cause a core-cycle is attributed to.
type Bucket uint8

const (
	// Issue: the core issued at least one instruction this cycle.
	Issue Bucket = iota
	// DepStall: issue blocked on an operand still in flight from an ALU /
	// FP instruction (plain dataflow latency).
	DepStall
	// Memory: issue blocked on an operand still in flight from a load
	// (cache miss / memory latency).
	Memory
	// CommLatency: issue blocked on an operand still in flight from the
	// synchronization array (a consumed value not yet delivered), or on
	// SA request-port contention.
	CommLatency
	// QueueEmpty: blocked consuming from an empty queue — the producing
	// thread has not caught up.
	QueueEmpty
	// QueueFull: blocked producing into a full queue — the consuming
	// thread has not caught up (backpressure).
	QueueFull
	// Branch: front-end bubble after a mispredicted branch.
	Branch
	// Idle: the core finished its thread before the end of the run.
	Idle

	// NumBuckets is the number of cause buckets.
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"issue", "dep-stall", "memory", "comms-latency",
	"queue-empty", "queue-full", "branch", "idle",
}

// String returns the bucket's report name.
func (b Bucket) String() string {
	if int(b) < len(bucketNames) {
		return bucketNames[b]
	}
	return fmt.Sprintf("bucket(%d)", int(b))
}

// Buckets is a per-bucket cycle tally.
type Buckets [NumBuckets]int64

// Total returns the sum over all buckets.
func (b *Buckets) Total() int64 {
	var n int64
	for _, v := range b {
		n += v
	}
	return n
}

// Add accumulates o into b.
func (b *Buckets) Add(o *Buckets) {
	for i := range b {
		b[i] += o[i]
	}
}

// Run is the attribution of one simulator run: a bucket tally per core, per
// static instruction, and per queue. It is filled observationally —
// recording never changes timing — and obeys:
//
//   - Cores[c].Total() == the run's cycle count, for every core c, and
//   - sum over instructions of Instrs[c] == Cores[c] minus the Idle
//     bucket (idle cycles happen after the core's last instruction and
//     belong to no instruction).
//
// Queues tallies only communication-caused buckets (QueueEmpty, QueueFull,
// CommLatency): the cycles each queue arc stalled a core.
type Run struct {
	// Cores[c] is core c's per-bucket tally.
	Cores []Buckets
	// Instrs[c][id] is the tally attributed to static instruction id of
	// core c's thread function (indexed by ir.Instr.ID; rows are sized by
	// the function's NumInstrIDs).
	Instrs [][]Buckets
	// Queues[q] is the tally of stall cycles blamed on queue q.
	Queues []Buckets
}

// NewRun returns a zeroed attribution for the given per-core instruction-ID
// space sizes and queue count.
func NewRun(instrIDs []int, numQueues int) *Run {
	r := &Run{
		Cores:  make([]Buckets, len(instrIDs)),
		Instrs: make([][]Buckets, len(instrIDs)),
		Queues: make([]Buckets, numQueues),
	}
	for i, n := range instrIDs {
		r.Instrs[i] = make([]Buckets, n)
	}
	return r
}

// Note tags one cycle of core with bucket b, optionally blaming a
// static instruction ID (instr >= 0) and a queue (queue >= 0). A nil Run
// records nothing, so instrumented code needs no nil checks.
func (r *Run) Note(core int, b Bucket, instr, queue int) {
	if r == nil {
		return
	}
	r.Cores[core][b]++
	if instr >= 0 && instr < len(r.Instrs[core]) {
		r.Instrs[core][instr][b]++
	}
	if queue >= 0 && queue < len(r.Queues) {
		r.Queues[queue][b]++
	}
}

// CheckConservation verifies the attribution invariants against the run's
// per-core totals (the cycle count, once per core): every
// core's buckets must sum exactly to its total, and the per-instruction
// tallies must sum to the core tally minus Idle. It returns nil when the
// attribution conserves.
func (r *Run) CheckConservation(totals []int64) error {
	if r == nil {
		return fmt.Errorf("attr: no attribution recorded")
	}
	if len(totals) != len(r.Cores) {
		return fmt.Errorf("attr: %d cores attributed, %d totals", len(r.Cores), len(totals))
	}
	for c := range r.Cores {
		if got := r.Cores[c].Total(); got != totals[c] {
			return fmt.Errorf("attr: core %d buckets sum to %d cycles, run says %d", c, got, totals[c])
		}
		var instrSum Buckets
		for i := range r.Instrs[c] {
			instrSum.Add(&r.Instrs[c][i])
		}
		want := r.Cores[c]
		want[Idle] = 0
		for b := Bucket(0); b < NumBuckets; b++ {
			if instrSum[b] != want[b] {
				return fmt.Errorf("attr: core %d bucket %s: instruction blame sums to %d, core tally is %d",
					c, b, instrSum[b], want[b])
			}
		}
	}
	return nil
}

// TotalBuckets returns the sum of Cores over all cores — the quantity the
// speedup-explanation decomposes (it sums to numCores × cycles).
func (r *Run) TotalBuckets() Buckets {
	var t Buckets
	if r == nil {
		return t
	}
	for c := range r.Cores {
		t.Add(&r.Cores[c])
	}
	return t
}
