package interp

// The external test package (interp_test) may import what imports interp —
// the oracle's corpus parser, the compiler stages — and borrows the
// hand-built programs of the internal tests from here.
var (
	MTPair       = mtPair
	DeadlockPair = deadlockPair
)
