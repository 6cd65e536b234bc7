package serve

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// A workload's baseline (exp.Baseline: its reference run's edge profile
// and steps, and its single-threaded cycles) depends on the workload, its
// reference input, the budget and the machine, never on the partitioner or
// on whether a request simulates. The server keeps it as a second kind of
// record in its one cache, beside the responses, so a kernel's second
// partitioner, its comm-only twin and every later server over the same
// directory seed their engine from it instead of interpreting and
// simulating the original program again (DESIGN.md decision 10).

// baselineFormat versions the record's layout; it is folded into the key,
// and a record that names another version is rejected on decode.
const baselineFormat = 1

// machine is the one machine the server simulates on, and machineField
// every one of its fields by name as the baseline key holds them, so a
// field added to sim.Config changes the key.
var (
	machine      = sim.DefaultConfig()
	machineField = fmt.Sprintf("%+v", machine)
)

// baselineKey is the cache key of w's baseline under budget b on the
// server's machine. The schema version comes first, as in every key, then
// the record kind, which no response key holds.
func baselineKey(w *workloads.Workload, b budget.Budget) string {
	h := cache.NewHasher(SchemaVersion)
	h.Field("kind", "baseline")
	h.Int("format", baselineFormat)
	h.Field("workload", w.Fingerprint())
	h.Int("budget.measure", b.MeasureSteps)
	h.Int("budget.sim", b.SimCycles)
	h.Field("machine", machineField)
	return h.Sum()
}

// The record holds no pointer: the profile is its own per-block exit
// tally (ir.Profile.Exits), stored as it is. Little-endian, fixed width:
//
//	format uint32 | fingerprint [64]byte | steps int64 | st cycles int64 |
//	blocks uint32 | blocks × (exits to Succs[0], exits to Succs[1]) int64
//
// The fingerprint is the workload's (hex), so a record can only ever seed
// the function it was made from.
const (
	fingerprintLen = 64
	baselineHeader = 4 + fingerprintLen + 8 + 8 + 4
)

// encodeBaseline renders b, a baseline of w, as its record. b's profile
// is a reference run of w.F, so its tally has one entry per block of w.F.
func encodeBaseline(b exp.Baseline, w *workloads.Workload) []byte {
	exits := b.Profile.Exits
	le := binary.LittleEndian
	out := make([]byte, 0, baselineHeader+16*len(exits))
	out = le.AppendUint32(out, baselineFormat)
	out = append(out, w.Fingerprint()...)
	out = le.AppendUint64(out, uint64(b.Steps))
	out = le.AppendUint64(out, uint64(b.STCycles))
	out = le.AppendUint32(out, uint32(len(exits)))
	for _, e := range exits {
		out = le.AppendUint64(out, uint64(e[0]))
		out = le.AppendUint64(out, uint64(e[1]))
	}
	return out
}

// decodeBaseline reads a record back for w, validating it against w's
// function: the format, the fingerprint and every length must match, and
// the tally must be one a run of w.F in that many steps could count
// (ir.Profile.Verify). What it accepts re-encodes to the same bytes.
func decodeBaseline(rec []byte, w *workloads.Workload) (b exp.Baseline, ok bool) {
	if len(rec) < baselineHeader {
		return b, false
	}
	le := binary.LittleEndian
	if le.Uint32(rec) != baselineFormat || string(rec[4:4+fingerprintLen]) != w.Fingerprint() {
		return b, false
	}
	rest := rec[4+fingerprintLen:]
	steps, st := int64(le.Uint64(rest)), int64(le.Uint64(rest[8:]))
	n, tally := int(le.Uint32(rest[16:])), rest[20:]
	if steps < 0 || st < 0 || n != len(w.F.Blocks) || len(tally) != 16*n {
		return b, false
	}
	prof := ir.NewProfile(w.F)
	for i := range prof.Exits {
		prof.Exits[i] = [2]int64{int64(le.Uint64(tally[16*i:])), int64(le.Uint64(tally[16*i+8:]))}
	}
	if prof.Verify(w.F, steps) != nil {
		return b, false
	}
	return exp.Baseline{Profile: prof, Steps: steps, STCycles: st}, true
}

// seedBaseline looks w's baseline up under key and seeds eng with it,
// reporting whether it did. Every failure is a miss that the computation
// makes up for by running the baseline itself: an absent record, a read
// fault or a corrupt record (the cache counts and quarantines those), and
// a record that does not decode for w (serve.baseline.rejected). The
// lookup counts no cache layer counter, which count response lookups.
func (s *Server) seedBaseline(eng *exp.Engine, w *workloads.Workload, key string, root *obs.Span) bool {
	sp := root.Child("baseline.lookup")
	defer sp.Finish()
	var ev cache.OpEvents
	rec, ok := s.cache.Lookup(key, &ev)
	spanCacheEvents(sp, &ev)
	if !ok {
		s.scope.Counter("baseline.miss").Inc()
		return false
	}
	b, ok := decodeBaseline(rec, w)
	if !ok {
		s.scope.Counter("baseline.rejected").Inc()
		sp.SetStr("outcome", "rejected")
		return false
	}
	eng.SeedBaseline(w, machine, b)
	s.scope.Counter("baseline.hit").Inc()
	return true
}

// engineBaseline reads back w's baseline from eng's memoized getters. After
// a simulated cell of w they only return what the cells computed.
func engineBaseline(ctx context.Context, eng *exp.Engine, w *workloads.Workload) (exp.Baseline, error) {
	st, err := eng.SingleThreadedCycles(ctx, machine, w)
	if err != nil {
		return exp.Baseline{}, err
	}
	ref, err := eng.Reference(ctx, w)
	if err != nil {
		return exp.Baseline{}, err
	}
	return exp.Baseline{Profile: ref.Profile, Steps: ref.Steps, STCycles: st}, nil
}

// storeBaseline writes the baseline a simulated computation made for w
// under key; a comm-only computation has none and never calls it. A
// failed write is counted and never fails the request. With a disk layer
// the record goes to disk alone, so it evicts no response from memory.
func (s *Server) storeBaseline(ctx context.Context, eng *exp.Engine, w *workloads.Workload, key string, root *obs.Span) {
	b, err := engineBaseline(ctx, eng, w)
	if err != nil {
		return
	}
	sp := root.Child("baseline.put")
	var ev cache.OpEvents
	if err := s.cache.Store(key, encodeBaseline(b, w), &ev); err != nil {
		s.scope.Counter("baseline.write_errors").Inc()
		sp.SetStr("outcome", "error")
	} else {
		s.scope.Counter("baseline.write").Inc()
	}
	spanCacheEvents(sp, &ev)
	sp.Finish()
}

// countBaselineRuns adds the baseline work eng did to the server's
// counters: reference interpretations and single-threaded simulations.
func (s *Server) countBaselineRuns(eng *exp.Engine) {
	st := eng.Stats()
	if st.ReferenceRuns > 0 {
		s.scope.Counter("baseline.ref_runs").Add(st.ReferenceRuns)
	}
	if st.STSimulations > 0 {
		s.scope.Counter("baseline.st_runs").Add(st.STSimulations)
	}
}
