// Package sim is a cycle-level model of the dual-core CMP the paper
// evaluates on (Figure 6(a)): validated Itanium 2-like in-order cores
// connected by the synchronization array (SA) of Rangan et al. [19]. The
// model captures the first-order effects the evaluation depends on:
// in-order issue with functional-unit port limits (communication uses the
// M pipeline), a three-level cache hierarchy with snoop-based write-
// invalidate coherence, blocking SA queues with 1-cycle access and shared
// request ports, and stall-on-use consume semantics.
package sim

// Config describes the simulated machine. DefaultConfig reproduces
// Figure 6(a).
type Config struct {
	// Core front end.
	IssueWidth  int // instructions issued per cycle per core
	ALUPorts    int
	MemPorts    int // M-type slots: loads, stores, produces, consumes
	FPPorts     int
	BranchPorts int
	// MispredictPenalty is the front-end bubble after a mispredicted
	// branch.
	MispredictPenalty int

	// Latencies (cycles).
	MulLatency  int
	DivLatency  int
	FPLatency   int
	FDivLatency int

	// Cache hierarchy. Lines are in memory words (the IR's unit); the
	// Itanium 2's 64-byte lines hold 8 words.
	L1Lat, L2Lat, L3Lat, MemLat int
	L1Sets, L1Ways, L1Line      int
	L2Sets, L2Ways, L2Line      int
	L3Sets, L3Ways, L3Line      int

	// Synchronization array.
	SALatency int // produce-to-consume latency
	SAPorts   int // request ports shared between cores
	QueueCap  int // elements per queue
	NumQueues int // hardware queues available

	// Cores is the number of cores (the paper evaluates 2).
	Cores int

	// StallLimit is the no-progress watchdog: the run aborts with
	// ErrNoProgress after this many consecutive cycles with no core
	// issuing. <= 0 selects the default (2,000,000 cycles). A run with a
	// fault armed lowers it to fault.StallLimit, so a mutant's deadlock
	// fails in microseconds, not seconds.
	StallLimit int64
}

// DefaultConfig returns the machine of Figure 6(a): dual-core Itanium 2 at
// 6-issue with 16KB/256KB/1.5MB caches, 141-cycle memory, and a 256-queue
// synchronization array with 32-entry queues and 4 shared ports.
func DefaultConfig() Config {
	return Config{
		IssueWidth:        6,
		ALUPorts:          6,
		MemPorts:          4,
		FPPorts:           2,
		BranchPorts:       3,
		MispredictPenalty: 6,

		MulLatency:  3,
		DivLatency:  12,
		FPLatency:   4,
		FDivLatency: 16,

		L1Lat: 1, L2Lat: 7, L3Lat: 12, MemLat: 141,
		// 16KB, 4-way, 64B lines = 8 words/line, 64 sets.
		L1Sets: 64, L1Ways: 4, L1Line: 8,
		// 256KB, 8-way, 128B lines = 16 words/line, 256 sets.
		L2Sets: 256, L2Ways: 8, L2Line: 16,
		// 1.5MB, 12-way, 128B lines = 16 words/line, 1024 sets (shared).
		L3Sets: 1024, L3Ways: 12, L3Line: 16,

		SALatency: 1,
		SAPorts:   4,
		QueueCap:  32,
		NumQueues: 256,

		Cores: 2,

		StallLimit: 2_000_000,
	}
}
