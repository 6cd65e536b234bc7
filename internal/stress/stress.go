// Package stress is the corpus-scale differential torture sweep: the
// standing correctness harness behind cmd/gmtstress.
//
// A sweep is a matrix of cells. Each cell pairs one corpus program (drawn
// from internal/randprog's seeded axis pools, or regenerated from a
// corpus.json manifest) with one configuration point — partitioner ×
// thread count × scheduling policy × queue depth × fault class — drawn
// reproducibly from the cell's seed. The cell runs the full differential
// oracle pinned to that configuration (oracle.ReplayConfig.Apply), so
// every cell is exactly one committed-format reproducer away from a
// regression test.
//
// Determinism is the design invariant: the cell list, each cell's
// outcome, the merged report, and every emitted reproducer are pure
// functions of (seed, cells, max-size, sentinel). Cells execute in
// parallel over internal/par with index-addressed result slots and all
// post-processing (shrinking, reproducer emission, report rendering)
// walks cells in index order, so the output is byte-identical across runs
// and across -j values.
//
// Fault-class cells apply the detector contract (the same one
// cmd/gmtcheck -chaos enforces): a destructive fault that fires must be
// detected — an undetected one is a finding — while benign faults and
// fault-free cells must pass. The optional sentinel cell plants a
// compile-time misplan and treats it as an ordinary bug, proving
// end-to-end that the sweep can fail, shrink, and emit a replayable
// reproducer.
package stress

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/par"
	"repro/internal/randprog"
)

// Configuration pools the cell-config draw samples from. Small, fixed,
// and ordered: changing them changes every cell drawn after the change,
// which the fingerprinted manifest makes loud rather than silent.
var (
	partPool    = []string{"dswp", "gremio", "random"}
	schedPool   = []string{"round-robin", "random", "adversarial"}
	qcapPool    = []int{1, 2, 8, 32}
	threadsPool = []int{2, 3}
	// faultPool is weighted: most cells run fault-free (the differential
	// sweep proper); the rest exercise the detector contract across every
	// fault class.
	faultPool = []fault.Class{"", "", "", "", "", "",
		fault.StallThread, fault.ShrinkQueue,
		fault.DropProduce, fault.DupProduce, fault.CorruptValue,
		fault.SwapQueue, fault.MisplacePlan}
)

// configSalt decorrelates the config draw from the program draw (which
// hashes the same seed inside randprog.AxesForSeed).
const configSalt = 0x73747265737363 // "stressc"

// DrawConfig draws cell i's configuration point. Pure function of the
// arguments; the returned config is exactly what a failing cell's
// reproducer records.
func DrawConfig(seed int64, i int) oracle.ReplayConfig {
	h := fault.Splitmix(uint64(seed+int64(i)) ^ configSalt)
	rc := oracle.ReplayConfig{Partitioner: partPool[h%uint64(len(partPool))]}
	h = fault.Splitmix(h)
	rc.Threads = threadsPool[h%uint64(len(threadsPool))]
	h = fault.Splitmix(h)
	rc.Schedule = schedPool[h%uint64(len(schedPool))]
	if rc.Schedule == "random" {
		h = fault.Splitmix(h)
		rc.ScheduleSeed = int64(h % 1_000_000)
	}
	h = fault.Splitmix(h)
	rc.QueueCap = qcapPool[h%uint64(len(qcapPool))]
	h = fault.Splitmix(h)
	rc.Fault = faultPool[h%uint64(len(faultPool))]
	if rc.Fault != "" {
		h = fault.Splitmix(h)
		rc.FaultSeed = int64(h%1_000_000) + 1
	}
	// The simulator cross-check is the expensive quarter of the matrix.
	h = fault.Splitmix(h)
	rc.NoSim = h%4 != 0
	return rc
}

// Status classifies one cell's outcome.
type Status string

const (
	// StatusOK: the cell satisfied its contract (clean run, or a
	// destructive fault that was duly detected).
	StatusOK Status = "ok"
	// StatusMismatch: a fault-free or benign-fault cell reported oracle
	// failures — a real correctness finding.
	StatusMismatch Status = "MISMATCH"
	// StatusUndetected: a destructive fault fired and no detector caught
	// it — a detector-coverage finding.
	StatusUndetected Status = "UNDETECTED"
	// StatusSkipped: the cell's golden run was unusable (step budget);
	// counted and reported, never silently dropped.
	StatusSkipped Status = "skipped"
)

// Cell is one matrix point: a corpus program plus a pinned configuration.
type Cell struct {
	Index int
	// Seed is the program seed (randprog corpus entry seed).
	Seed int64
	// Sentinel marks the planted-bug cell.
	Sentinel bool
	Entry    randprog.Entry
	Config   oracle.ReplayConfig
}

// CellResult is one cell's merged outcome.
type CellResult struct {
	Cell     Cell
	Status   Status
	Runs     int
	Injected int64
	// Kinds is the sorted failure-kind multiset ("" when clean).
	Kinds string
	// Detail is the first failure (or skip reason) rendered on one line.
	Detail string
	// c is the case, retained for shrinking failing cells.
	c *oracle.Case
}

// Repro is one emitted reproducer: a shrunk failing cell in the corpus
// format, replayable by gmtcheck -replay.
type Repro struct {
	Cell   int
	Status Status
	Kind   oracle.Kind
	// TraceID is the cell's deterministic trace identifier (a pure
	// function of the sweep seed and cell index), written into the
	// reproducer's trace directive so the file links back to the sweep
	// run that emitted it.
	TraceID string
	// Text is the reproducer file body (oracle corpus format, replay and
	// trace directives included).
	Text string
}

// CellTraceID derives the deterministic trace ID of one sweep cell. The
// same (sweep seed, cell index) always names the same trace, so a
// reproducer can be matched to its sweep cell long after the run.
func CellTraceID(seed int64, cell int) string {
	return obs.TraceID("stress", fmt.Sprintf("%d", seed), fmt.Sprintf("%d", cell))
}

// Options configures a sweep. Zero values mean defaults.
type Options struct {
	// Seed roots the sweep: cell i uses program seed Seed+i.
	Seed int64
	// Cells is the number of matrix cells (default 16).
	Cells int
	// Jobs bounds sweep parallelism (par.Run semantics; 0 = GOMAXPROCS).
	// Results are byte-identical for every value.
	Jobs int
	// MaxSize caps the corpus size axis (0 = full range up to ~5k).
	MaxSize int
	// Budget bounds each cell's executor runs; zero fields fall back to
	// Defaults() (tighter than budget.Experiments(): a stress cell that
	// needs 200M steps is a corpus bug, not a finding).
	Budget budget.Budget
	// Manifest, when non-nil, supplies the corpus instead of streaming
	// generation: cell i regenerates (and fingerprint-verifies) program
	// i mod len(Manifest.Programs).
	Manifest *randprog.Manifest
	// Sentinel appends one planted-bug cell (a compile-time misplan
	// treated as an ordinary cell): the sweep must fail, shrink it, and
	// emit a replayable reproducer, proving the whole pipeline can fire.
	Sentinel bool
	// MaxRepros bounds how many failing cells are shrunk into reproducers
	// (default 3; shrinking is the expensive tail).
	MaxRepros int
	// ShrinkChecks bounds each shrink's candidate evaluations (default
	// 400; each evaluation is one single-cell oracle pass).
	ShrinkChecks int
	// Metrics receives sweep counters under the "stress" scope (nil ok).
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Cells == 0 {
		o.Cells = 16
	}
	if o.MaxRepros == 0 {
		o.MaxRepros = 3
	}
	if o.ShrinkChecks == 0 {
		o.ShrinkChecks = 400
	}
	o.Budget = o.Budget.OrElse(Defaults())
	return o
}

// Defaults is the stress sweep's per-cell budget: tight enough that a
// runaway cell fails fast at corpus scale.
func Defaults() budget.Budget {
	return budget.Budget{
		ProfileSteps: 5_000_000,
		MeasureSteps: 5_000_000,
		SimCycles:    50_000_000,
	}
}

// Result is the deterministic shard-merged outcome of one sweep.
type Result struct {
	Seed                            int64
	Cells                           []CellResult
	Repros                          []Repro
	Runs                            int
	Injected                        int64
	Mismatches, Undetected, Skipped int
	// ShrinkStopped records shrink errors (IR printing bugs surfaced
	// mid-shrink); the unshrunk reproducer is still emitted.
	ShrinkStopped []string
}

// Failed reports whether the sweep found anything.
func (r *Result) Failed() bool { return r.Mismatches+r.Undetected > 0 }

// cells materializes the deterministic cell list.
func cells(opts Options) ([]Cell, error) {
	var out []Cell
	for i := 0; i < opts.Cells; i++ {
		c := Cell{Index: i, Seed: opts.Seed + int64(i), Config: DrawConfig(opts.Seed, i)}
		if m := opts.Manifest; m != nil {
			if len(m.Programs) == 0 {
				return nil, fmt.Errorf("stress: manifest has no programs")
			}
			c.Entry = m.Programs[i%len(m.Programs)]
			c.Seed = c.Entry.Seed
		} else {
			c.Entry, _ = randprog.GenerateEntry(c.Seed, opts.MaxSize)
		}
		out = append(out, c)
	}
	if opts.Sentinel {
		out = append(out, Cell{
			Index:    opts.Cells,
			Seed:     opts.Seed,
			Sentinel: true,
		})
	}
	return out, nil
}

// program rebuilds a cell's program (fingerprint-checked, so a generator
// drift between manifest and binary is loud).
func program(c Cell, opts Options) (*randprog.Program, error) {
	if c.Entry.Fingerprint == "" {
		return nil, fmt.Errorf("stress: cell %d has no corpus entry", c.Index)
	}
	m := &randprog.Manifest{Version: randprog.ManifestVersion, Programs: []randprog.Entry{c.Entry}}
	return m.Regenerate(0)
}

// oracleOptions maps a cell onto single-cell oracle options.
func oracleOptions(c Cell, opts Options) (oracle.Options, error) {
	base := oracle.Options{
		Seed:      c.Seed,
		MaxSteps:  opts.Budget.MeasureSteps,
		SimCycles: opts.Budget.SimCycles,
	}
	return c.Config.Apply(base)
}

// sentinelConfig is the planted bug: a compile-time misplan pinned to the
// cheapest single cell. FaultSeed is scanned at runtime until the fault
// actually fires (a program with no cross-thread queue has nothing to
// misplace).
func sentinelConfig(faultSeed int64) oracle.ReplayConfig {
	return oracle.ReplayConfig{
		Partitioner: "dswp", Threads: 2, Schedule: "round-robin",
		QueueCap: 32, Fault: fault.MisplacePlan, FaultSeed: faultSeed, NoSim: true,
	}
}

// runSentinel finds, deterministically, the first program seed at or
// after the base seed whose misplanned compilation both fires and fails,
// and returns that cell result. The scan itself is part of the sweep's
// pure function of the seed.
func runSentinel(c Cell, opts Options) CellResult {
	for off := int64(0); off < 64; off++ {
		seed := opts.Seed + off
		cfg := sentinelConfig(1)
		cas := oracle.FromProgram(fmt.Sprintf("sentinel seed=%d", seed), seed,
			mustProgram(seed, opts.MaxSize))
		cas.Replay = &cfg
		oopts, err := cfg.Apply(oracle.Options{Seed: seed,
			MaxSteps: opts.Budget.MeasureSteps, SimCycles: opts.Budget.SimCycles})
		if err != nil {
			return CellResult{Cell: c, Status: StatusSkipped, Detail: err.Error()}
		}
		rep, err := oracle.Check(cas, oopts)
		if err != nil || rep.Injected == 0 {
			continue // unusable or queue-free program; try the next seed
		}
		res := CellResult{Cell: c, Runs: rep.Runs, Injected: rep.Injected, c: cas}
		res.Cell.Seed = seed
		res.Cell.Config = cfg
		if rep.Ok() {
			// The planted bug escaped: exactly the finding class the
			// sentinel exists to surface.
			res.Status = StatusUndetected
			res.Detail = fmt.Sprintf("planted misplan escaped: %s", rep.FaultSchedule)
			return res
		}
		res.Status = StatusMismatch
		res.Kinds = kindSet(rep)
		res.Detail = rep.Failures[0].String()
		return res
	}
	return CellResult{Cell: c, Status: StatusSkipped,
		Detail: "no misplaceable program within 64 seeds of the base seed"}
}

func mustProgram(seed int64, maxSize int) *randprog.Program {
	_, p := randprog.GenerateEntry(seed, maxSize)
	return p
}

// kindSet renders a report's failure kinds as a sorted, deduplicated set.
func kindSet(rep *oracle.Report) string {
	seen := map[oracle.Kind]bool{}
	var ks []string
	for _, f := range rep.Failures {
		if !seen[f.Kind] {
			seen[f.Kind] = true
			ks = append(ks, string(f.Kind))
		}
	}
	// Insertion sort: the set is tiny and package sort would be the only
	// other user of its import.
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	return strings.Join(ks, ",")
}

// runCell executes one ordinary (non-sentinel) cell.
func runCell(c Cell, opts Options) CellResult {
	res := CellResult{Cell: c}
	p, err := program(c, opts)
	if err != nil {
		res.Status = StatusSkipped
		res.Detail = err.Error()
		return res
	}
	cfg := c.Config
	cas := oracle.FromProgram(fmt.Sprintf("cell=%d seed=%d", c.Index, c.Seed), c.Seed, p)
	cas.Replay = &cfg
	res.c = cas
	oopts, err := oracleOptions(c, opts)
	if err != nil {
		res.Status = StatusSkipped
		res.Detail = err.Error()
		return res
	}
	rep, err := oracle.Check(cas, oopts)
	if err != nil {
		res.Status = StatusSkipped
		res.Detail = err.Error()
		return res
	}
	res.Runs = rep.Runs
	res.Injected = rep.Injected
	res.Kinds = kindSet(rep)
	if !rep.Ok() {
		res.Detail = rep.Failures[0].String()
	}

	// The detector contract: fault-free and benign-fault cells must be
	// clean, a destructive fault that fired must be reported.
	switch c.Config.Fault.Judge(rep.Injected, rep.Ok()) {
	case fault.VerdictOK:
		res.Status = StatusOK
	case fault.VerdictMismatch:
		res.Status = StatusMismatch
	case fault.VerdictUndetected:
		res.Status = StatusUndetected
		res.Detail = fmt.Sprintf("%s changed %d program(s), no detector reported it",
			c.Config.Fault, rep.Injected)
	}
	return res
}

// Sweep runs the full matrix. The returned Result — including the order
// and content of Repros — is a pure function of opts (minus Jobs and
// Metrics), whatever the parallelism.
func Sweep(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	cs, err := cells(opts)
	if err != nil {
		return nil, err
	}

	results := make([]CellResult, len(cs))
	err = par.Run(ctx, opts.Jobs, len(cs), func(i int) error {
		if cs[i].Sentinel {
			results[i] = runSentinel(cs[i], opts)
		} else {
			results[i] = runCell(cs[i], opts)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Seed: opts.Seed, Cells: results}
	for _, cr := range results {
		res.Runs += cr.Runs
		res.Injected += cr.Injected
		switch cr.Status {
		case StatusMismatch:
			res.Mismatches++
		case StatusUndetected:
			res.Undetected++
		case StatusSkipped:
			res.Skipped++
		}
	}

	// Shrink failing cells into reproducers, serially and in cell order,
	// so the emitted files are identical across -j values.
	for _, cr := range results {
		if len(res.Repros) >= opts.MaxRepros {
			break
		}
		if cr.Status != StatusMismatch && cr.Status != StatusUndetected {
			continue
		}
		if cr.c == nil {
			continue
		}
		oopts, err := oracleOptions(cr.Cell, opts)
		if err != nil {
			continue
		}
		var still oracle.Property
		var kind oracle.Kind
		if cr.Status == StatusMismatch {
			kind = oracle.Kind(strings.SplitN(cr.Kinds, ",", 2)[0])
			still = oracle.StillFails(oopts, kind)
		} else {
			still = stillUndetected(oopts)
		}
		min, serr := oracle.Shrink(cr.c, still, opts.ShrinkChecks)
		if serr != nil {
			res.ShrinkStopped = append(res.ShrinkStopped,
				fmt.Sprintf("cell %d: %v", cr.Cell.Index, serr))
		}
		min.Name = fmt.Sprintf("cell=%d seed=%d (shrunk)", cr.Cell.Index, cr.Cell.Seed)
		min.TraceID = CellTraceID(opts.Seed, cr.Cell.Index)
		res.Repros = append(res.Repros, Repro{
			Cell:    cr.Cell.Index,
			Status:  cr.Status,
			Kind:    kind,
			TraceID: min.TraceID,
			Text:    oracle.FormatCase(min),
		})
	}

	if s := opts.Metrics.Scope("stress"); s != nil {
		s.Counter("cells").Add(int64(len(results)))
		s.Counter("runs").Add(int64(res.Runs))
		s.Counter("injected").Add(res.Injected)
		s.Counter("mismatches").Add(int64(res.Mismatches))
		s.Counter("undetected").Add(int64(res.Undetected))
		s.Counter("skipped").Add(int64(res.Skipped))
		s.Counter("shrinks").Add(int64(len(res.Repros)))
	}
	return res, nil
}

// stillUndetected is the shrink property for detector-coverage findings:
// the fault still fires and the oracle still misses it.
func stillUndetected(opts oracle.Options) oracle.Property {
	return func(c *oracle.Case) bool {
		rep, err := oracle.Check(c, opts)
		return err == nil && rep.Injected > 0 && rep.Ok()
	}
}

// WriteReport renders the deterministic sweep report: one line per cell
// in index order plus a summary. Byte-identical across runs and -j.
func (r *Result) WriteReport(w io.Writer) error {
	for _, cr := range r.Cells {
		label := "sentinel"
		if !cr.Cell.Sentinel {
			label = cr.Cell.Entry.Axes.String()
		}
		detail := ""
		if cr.Detail != "" {
			detail = " | " + cr.Detail
		}
		if _, err := fmt.Fprintf(w, "cell %3d seed=%d [%s] %s :: %s%s\n",
			cr.Cell.Index, cr.Cell.Seed, label, cr.Cell.Config, cr.Status, detail); err != nil {
			return err
		}
	}
	for _, s := range r.ShrinkStopped {
		if _, err := fmt.Fprintf(w, "shrink stopped early: %s\n", s); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"stress seed=%d: %d cells (%d skipped), %d runs, %d faults injected, %d mismatches, %d undetected, %d reproducers\n",
		r.Seed, len(r.Cells), r.Skipped, r.Runs, r.Injected, r.Mismatches, r.Undetected, len(r.Repros))
	return err
}
