package oracle

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/interp"
)

// FuzzFaultInjection drives the detector-coverage contract over random
// programs: a random generator seed × fault class × fault seed must always
// yield either a classified oracle failure (every failure carries a named
// Kind) or a clean tolerated run — never a panic, and for benign fault
// classes (bounded stalls, shrunken queues) never a wrong result. Run with
//
//	go test -fuzz=FuzzFaultInjection -fuzztime=30s ./internal/oracle
func FuzzFaultInjection(f *testing.F) {
	classes := fault.Classes()
	for i := range classes {
		f.Add(int64(1), int64(1), byte(i))
		f.Add(int64(42), int64(7), byte(i))
	}
	f.Add(int64(557), int64(-3), byte(0))
	f.Fuzz(func(t *testing.T, progSeed, faultSeed int64, classIdx byte) {
		cls := classes[int(classIdx)%len(classes)]
		c := Generate(progSeed)
		opts := Options{
			Seed:          progSeed,
			Inject:        &fault.Spec{Class: cls, Seed: faultSeed},
			SimStallLimit: 50_000, // a mutant's deadlock fails fast in the sim
		}
		rep, err := Check(c, opts)
		if err != nil {
			// Infrastructure errors, not detections. Only a budget blowup
			// is acceptable for a generated program.
			if errors.Is(err, interp.ErrStepLimit) {
				t.Skipf("seed %d exceeds the oracle step budget: %v", progSeed, err)
			}
			t.Fatalf("seed %d class %s fault-seed %d: %v", progSeed, cls, faultSeed, err)
		}
		for _, fl := range rep.Failures {
			if fl.Kind == "" {
				t.Fatalf("seed %d class %s: unclassified failure: %v", progSeed, cls, fl)
			}
		}
		if cls.Benign() && !rep.Ok() {
			t.Fatalf("seed %d: benign class %s (fault-seed %d, %d injected) must be tolerated, got:\n%v\nreproducer:\n%s",
				progSeed, cls, faultSeed, rep.Injected, rep.Err(), FormatCase(c))
		}
		if rep.Injected > 0 && rep.FaultSchedule == "" {
			t.Fatalf("seed %d class %s: %d programs faulted but no change recorded",
				progSeed, cls, rep.Injected)
		}
	})
}
