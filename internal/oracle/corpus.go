package oracle

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/partition"
)

// The corpus format is the IR's own textual form prefixed with directive
// comments, so a reproducer file is simultaneously valid input to
// ir.Parse (which strips ';' comments) and self-describing:
//
//	; oracle case: seed=42 (shrunk)
//	; seed: 42
//	; trace: 6fd43a2f8c91e0b4
//	; args: 3 -7
//	; mem: 1 0 0 5
//	; object: arr 0 16
//	; replay: partitioner=dswp threads=2 schedule=adversarial qcap=1
//	func rand(r1, r2)
//	entry:
//		...
//
// The optional replay directive pins the exact matrix cell the failure was
// found in (cmd/gmtstress writes it); without one, a replay runs the full
// default matrix. The optional trace directive carries the deterministic
// trace ID of the run that found the failure (obs.TraceID form), linking
// a reproducer back to its telemetry; gmtcheck -replay echoes it.
// cmd/gmtcheck prints failing cases in this format and replays them with
// -replay; files checked into testdata/corpus are re-run by the
// regression tests.

// ReplayConfig pins one matrix cell so a reproducer re-runs in exactly
// the configuration that failed. The zero value means "the full default
// matrix" — FormatRepro then writes no directive at all.
type ReplayConfig struct {
	// Partitioner restricts the partition source: "dswp", "gremio", or
	// "random" (one seed-derived uniform random partition). "" keeps the
	// default set.
	Partitioner string
	// Threads restricts the thread count (0 = default {2, 3}).
	Threads int
	// Schedule restricts the scheduling policy ("" = full matrix);
	// ScheduleSeed parameterizes the random policy.
	Schedule     string
	ScheduleSeed int64
	// QueueCap restricts the synchronization-array depth (0 = defaults).
	QueueCap int
	// Fault arms this fault class, seeded by FaultSeed ("" = none; see
	// Options.Inject).
	Fault     fault.Class
	FaultSeed int64
	// NoSim skips the cycle-level simulator cross-check.
	NoSim bool
}

// IsZero reports whether the config selects the full default matrix.
func (rc ReplayConfig) IsZero() bool { return rc == ReplayConfig{} }

// String renders the config as it appears in the replay directive
// ("full-matrix" for the zero config).
func (rc ReplayConfig) String() string {
	if rc.IsZero() {
		return "full-matrix"
	}
	return rc.directive()
}

// directive renders the config as the replay directive's key=value body.
// Only non-default fields appear, so hand-written corpus files stay terse.
func (rc ReplayConfig) directive() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if rc.Partitioner != "" {
		add("partitioner", rc.Partitioner)
	}
	if rc.Threads != 0 {
		add("threads", strconv.Itoa(rc.Threads))
	}
	if rc.Schedule != "" {
		add("schedule", rc.Schedule)
	}
	if rc.ScheduleSeed != 0 {
		add("sched-seed", strconv.FormatInt(rc.ScheduleSeed, 10))
	}
	if rc.QueueCap != 0 {
		add("qcap", strconv.Itoa(rc.QueueCap))
	}
	if rc.Fault != "" {
		add("fault", string(rc.Fault))
	}
	if rc.FaultSeed != 0 {
		add("fault-seed", strconv.FormatInt(rc.FaultSeed, 10))
	}
	if rc.NoSim {
		add("nosim", "1")
	}
	return strings.Join(parts, " ")
}

// parseReplay parses the body of a replay directive. Unknown keys and
// malformed values are hard errors — a reproducer that silently dropped
// half its configuration would "replay" a different cell.
func parseReplay(body string) (*ReplayConfig, error) {
	rc := &ReplayConfig{}
	for _, field := range strings.Fields(body) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("replay field %q is not key=value", field)
		}
		var err error
		switch k {
		case "partitioner":
			rc.Partitioner = v
		case "threads":
			rc.Threads, err = strconv.Atoi(v)
		case "schedule":
			rc.Schedule = v
		case "sched-seed":
			rc.ScheduleSeed, err = strconv.ParseInt(v, 10, 64)
		case "qcap":
			rc.QueueCap, err = strconv.Atoi(v)
		case "fault":
			var cls fault.Class
			cls, err = fault.ParseClass(v)
			rc.Fault = cls
		case "fault-seed":
			rc.FaultSeed, err = strconv.ParseInt(v, 10, 64)
		case "nosim":
			rc.NoSim = v == "1" || v == "true"
		default:
			return nil, fmt.Errorf("unknown replay key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("replay field %q: %v", field, err)
		}
	}
	return rc, nil
}

// Apply narrows opts to the recorded cell: every set field of the config
// overrides the corresponding matrix dimension. An unknown partitioner
// name is an error.
func (rc *ReplayConfig) Apply(o Options) (Options, error) {
	if rc == nil {
		return o, nil
	}
	switch rc.Partitioner {
	case "":
	case "random":
		o.Partitioners = []partition.Partitioner{}
		o.RandomParts = 1
	case "dswp":
		o.Partitioners = []partition.Partitioner{partition.DSWP{}}
		o.RandomParts = -1
	case "gremio":
		o.Partitioners = []partition.Partitioner{partition.GREMIO{}}
		o.RandomParts = -1
	default:
		return o, fmt.Errorf("oracle: replay: unknown partitioner %q (want dswp, gremio, or random)", rc.Partitioner)
	}
	if rc.Threads > 0 {
		o.Threads = []int{rc.Threads}
	}
	if rc.Schedule != "" {
		o.Schedules = []SchedSpec{{Name: rc.Schedule, Seed: rc.ScheduleSeed}}
	}
	if rc.QueueCap > 0 {
		o.QueueCaps = []int{rc.QueueCap}
	}
	if rc.Fault != "" {
		o.Inject = &fault.Spec{Class: rc.Fault, Seed: rc.FaultSeed}
		if o.SimStallLimit == 0 {
			o.SimStallLimit = fault.StallLimit
		}
	}
	if rc.NoSim {
		o.SkipSim = true
	}
	return o, nil
}

// FormatCase renders a case as a reproducer file (with its replay
// directive when the case carries one).
func FormatCase(c *Case) string { return FormatRepro(c, c.Replay) }

// FormatRepro renders a case pinned to one matrix cell. A nil or zero
// config writes no replay directive.
func FormatRepro(c *Case, rc *ReplayConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; oracle case: %s\n", c.Name)
	if c.Seed != 0 {
		fmt.Fprintf(&b, "; seed: %d\n", c.Seed)
	}
	if c.TraceID != "" {
		fmt.Fprintf(&b, "; trace: %s\n", c.TraceID)
	}
	fmt.Fprintf(&b, "; args:%s\n", formatInts(c.Args))
	fmt.Fprintf(&b, "; mem:%s\n", formatInts(c.Mem))
	for _, o := range c.Objects {
		fmt.Fprintf(&b, "; object: %s %d %d\n", o.Name, o.Base, o.Size)
	}
	if rc != nil && !rc.IsZero() {
		fmt.Fprintf(&b, "; replay: %s\n", rc.directive())
	}
	b.WriteString(c.F.String())
	return b.String()
}

func formatInts(vs []int64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, " %d", v)
	}
	return b.String()
}

// maxCaseWords bounds the memory image a reproducer's objects may ask
// ParseCase to allocate: an object directive is a few bytes of text, and
// without a bound one of them could demand terabytes.
const maxCaseWords = 1 << 20

// ParseCase parses a reproducer file back into a Case (the replay
// directive, if any, lands in Case.Replay). Truncated or corrupt files —
// malformed directives, unknown replay keys, bad object geometry, an arg
// count that disagrees with the IR, or unparseable IR — are hard errors,
// never best-effort cases.
func ParseCase(text string) (*Case, error) {
	c := &Case{Name: "corpus"}
	for num, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, ";") {
			continue
		}
		line = strings.TrimSpace(strings.TrimPrefix(line, ";"))
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		rest = strings.TrimSpace(rest)
		var err error
		switch strings.TrimSpace(key) {
		case "oracle case":
			c.Name = rest
		case "seed":
			c.Seed, err = strconv.ParseInt(rest, 10, 64)
		case "trace":
			c.TraceID = rest
		case "args":
			c.Args, err = parseInts(rest)
		case "mem":
			c.Mem, err = parseInts(rest)
		case "object":
			var o ir.MemObject
			f := strings.Fields(rest)
			if len(f) != 3 {
				err = fmt.Errorf("want 'name base size', got %q", rest)
				break
			}
			o.Name = f[0]
			if o.Base, err = strconv.ParseInt(f[1], 10, 64); err != nil {
				break
			}
			if o.Size, err = strconv.ParseInt(f[2], 10, 64); err != nil {
				break
			}
			if o.Base < 0 || o.Size <= 0 || o.Base > maxCaseWords-o.Size {
				err = fmt.Errorf("object %s has impossible geometry base=%d size=%d (memory holds at most %d words)",
					o.Name, o.Base, o.Size, maxCaseWords)
				break
			}
			c.Objects = append(c.Objects, o)
		case "replay":
			if c.Replay != nil {
				err = fmt.Errorf("duplicate replay directive")
				break
			}
			c.Replay, err = parseReplay(rest)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: corpus line %d: %v", num+1, err)
		}
	}
	f, err := ir.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("oracle: corpus IR: %w", err)
	}
	c.F = f
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("oracle: corpus IR: %w", err)
	}
	if len(c.Args) != len(f.Params) {
		return nil, fmt.Errorf("oracle: corpus: %d args for %d params", len(c.Args), len(f.Params))
	}
	// Size memory to cover every declared object even when the mem
	// directive is short (trailing zeros may be omitted).
	need := int64(len(c.Mem))
	for _, o := range c.Objects {
		if o.Base+o.Size > need {
			need = o.Base + o.Size
		}
	}
	for int64(len(c.Mem)) < need {
		c.Mem = append(c.Mem, 0)
	}
	return c, nil
}

func parseInts(s string) ([]int64, error) {
	fields := strings.Fields(s)
	vs := make([]int64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// LoadCorpus parses every .ir file in dir (sorted by name). Each case's
// Name is its file name. A missing directory yields an empty corpus.
func LoadCorpus(dir string) ([]*Case, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".ir") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var cases []*Case
	for _, name := range names {
		text, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		c, err := ParseCase(string(text))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		c.Name = name
		cases = append(cases, c)
	}
	return cases, nil
}
