//go:build race

package sim

// raceEnabled reports that the race detector is on: the runtime then
// allocates for its own bookkeeping, so tests that count allocations
// exactly run their code but skip the count.
const raceEnabled = true
