package cache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// opEventFields pairs every per-call event with the registry counter that
// aggregates it. A Get's answering layer counts under hit.mem, hit.disk or
// miss.
var opEventFields = []struct {
	counter string
	of      func(*OpEvents) int64
}{
	{"retry", func(e *OpEvents) int64 { return e.Retries }},
	{"read_error", func(e *OpEvents) int64 { return e.ReadErrors }},
	{"write_error", func(e *OpEvents) int64 { return e.WriteErrors }},
	{"corrupt", func(e *OpEvents) int64 { return e.Corrupt }},
	{"quarantined", func(e *OpEvents) int64 { return e.Quarantined }},
	{"bypass", func(e *OpEvents) int64 { return e.Bypass }},
	{"breaker.probe", func(e *OpEvents) int64 { return e.Probes }},
	{"breaker.trip", func(e *OpEvents) int64 { return e.BreakerTrips }},
	{"breaker.close", func(e *OpEvents) int64 { return e.BreakerCloses }},
	{"hit.mem", func(e *OpEvents) int64 { return layerIs(e, "mem") }},
	{"hit.disk", func(e *OpEvents) int64 { return layerIs(e, "disk") }},
	{"miss", func(e *OpEvents) int64 { return layerIs(e, "miss") }},
}

func layerIs(e *OpEvents, layer string) int64 {
	if e.Layer == layer {
		return 1
	}
	return 0
}

// TestEventsRecordedOnce: every event of a cache call is recorded once,
// into the call's OpEvents and its registry counter together, so over any
// sequence of calls the per-call events sum to the registry's delta, field
// by field. Each row reopens a warm directory over a seeded vfs.Faulty
// and runs the same Put/Get sequence; between them the rows take every
// event: retries, read and write errors, a breaker trip, probes, a close,
// bypasses, and corrupt records with their quarantine.
func TestEventsRecordedOnce(t *testing.T) {
	for _, row := range []struct {
		name  string
		spec  vfs.Spec
		opts  Options
		takes []string // counters the row must move
	}{
		{"reads fail, retried", vfs.Spec{Class: vfs.ReadEIO, Seed: 1},
			Options{}, []string{"retry", "hit.disk"}},
		{"reads fail, breaker", vfs.Spec{Class: vfs.ReadEIO, Seed: 1},
			Options{Retries: -1, BreakerThreshold: 1, BreakerProbe: 2},
			[]string{"read_error", "breaker.trip", "bypass", "breaker.probe", "breaker.close"}},
		{"disk full", vfs.Spec{Class: vfs.WriteENOSPC, Seed: 1, ByteBudget: 1},
			Options{Retries: -1}, []string{"write_error"}},
		{"writes torn", vfs.Spec{Class: vfs.TornWrite, Seed: 1},
			Options{}, []string{"corrupt", "quarantined", "miss"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			warm := mustNew(t, Options{Dir: dir})
			for i := 0; i < 8; i++ {
				if err := warm.Put(fmt.Sprintf("k%d", i), chaosPayload(1, i)); err != nil {
					t.Fatal(err)
				}
			}

			reg := obs.NewRegistry()
			o := row.opts
			o.Dir, o.MemEntries, o.FS = dir, 1, vfs.NewFaulty(row.spec)
			o.Sleep = func(time.Duration) {}
			o.Metrics = reg.Scope("cache")
			c := mustNew(t, o)
			before := map[string]int64{}
			for _, f := range opEventFields {
				before[f.counter] = reg.Counter("cache." + f.counter).Value()
			}

			// With one memory entry every Get of another key goes to the
			// disk layer: the warm keys, and the key the previous round
			// put, whose record a torn write cut short.
			sum := map[string]int64{}
			record := func(ev *OpEvents) {
				for _, f := range opEventFields {
					sum[f.counter] += f.of(ev)
				}
			}
			for i := 0; i < 24; i++ {
				var put OpEvents
				c.PutEv(fmt.Sprintf("n%d", i), chaosPayload(2, i), &put)
				record(&put)
				for _, key := range []string{fmt.Sprintf("k%d", i%8), fmt.Sprintf("n%d", i-1)} {
					var get OpEvents
					c.GetEv(key, &get)
					record(&get)
				}
			}

			for _, f := range opEventFields {
				if delta := reg.Counter("cache."+f.counter).Value() - before[f.counter]; sum[f.counter] != delta {
					t.Errorf("%s: the calls' events sum to %d, the registry moved by %d", f.counter, sum[f.counter], delta)
				}
			}
			for _, name := range row.takes {
				if sum[name] == 0 {
					t.Errorf("the sequence took no %s event (events: %v)", name, sum)
				}
			}
		})
	}
}
