//go:build race

package serve

// raceEnabled reports that the race detector is on: the runtime then
// allocates for its own bookkeeping, so tests that bound allocation run
// their code but skip the bound.
const raceEnabled = true
