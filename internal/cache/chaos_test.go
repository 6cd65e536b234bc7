package cache

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// ChaosOptions configures a crash-consistency sweep.
type ChaosOptions struct {
	// Seed parameterizes keys, payloads, and every injected crash; the
	// same seed yields a byte-identical report.
	Seed int64
	// Puts is the number of Put operations per cell (each to its own
	// key) after the seeded records; <= 0 means 5.
	Puts int
	// Durable runs the workload with fsync-on-Put, which upgrades the
	// after-write crash points from "torn record, dropped on recovery"
	// to "complete record, served intact".
	Durable bool
}

// The chaos workload: chaosSeeds records written on a healthy disk, a
// torn append after them (so the crashing cache's open has a log to
// recover, and its rewrite is a write the sweep crashes in), then the
// Puts under a chaosDiskEntries bound, which evicts and so compacts.
const (
	chaosSeeds       = 2
	chaosDiskEntries = 2
)

// ChaosReport is the outcome of RunChaos: the workload's write counts,
// one line per (crash step, crash op) cell, and a summary, deterministic
// for a given seed.
type ChaosReport struct {
	Cells    int
	Failures int
	// Appends and Rewrites count the workload's writes of each kind; the
	// sweep crashes inside every one of them.
	Appends, Rewrites int
	lines             []string
}

// String renders the report, byte-identical across runs with one seed.
func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos workload: %d appends, %d rewrites\n", r.Appends, r.Rewrites)
	for _, l := range r.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "chaos: %d cells, %d failures\n", r.Cells, r.Failures)
	return b.String()
}

// RunChaos sweeps the chaos workload across every injected crash point.
// A dry run on a healthy filesystem counts the workload's appends and
// rewrites (temp + rename: the open's recovery and each compaction);
// then, for each crash step and each 1-based write of that step's kind,
// a fresh directory runs the workload under a crashing vfs.Faulty,
// "restarts" as a second cache over it on a healthy filesystem (which
// runs the recovery scan), and the cell asserts the crash-consistency
// contract:
//   - no temp residue survives recovery;
//   - the recovered log holds no invalid byte, so nothing past its last
//     valid record;
//   - every served payload is byte-identical to what was Put (torn
//     records are dropped or quarantined, never served);
//   - in durable mode, every Put that completed and was not evicted
//     before the crash is served;
//   - the recovered cache accepts writes and serves all keys afterwards.
//
// Cell directories are created under root.
func RunChaos(root string, o ChaosOptions) (*ChaosReport, error) {
	if o.Puts <= 0 {
		o.Puts = 5
	}
	w := chaosWorkload{o: o}
	for i := 0; i < chaosSeeds+o.Puts; i++ {
		name := fmt.Sprintf("chaos-key-%d", i-chaosSeeds)
		if i < chaosSeeds {
			name = fmt.Sprintf("chaos-seed-%d", i)
		}
		w.keys = append(w.keys, name)
		w.payloads = append(w.payloads, chaosPayload(o.Seed, i))
	}

	rep := &ChaosReport{}
	dry := newCountFS(vfs.OS{})
	if _, err := w.run(filepath.Join(root, "dry-run"), dry); err != nil {
		return nil, err
	}
	rep.Appends, rep.Rewrites = dry.calls("Append"), dry.calls("WriteFile")
	for _, step := range vfs.CrashSteps() {
		ops := rep.Rewrites
		if step.Append() {
			ops = rep.Appends
		}
		for op := 1; op <= ops; op++ {
			rep.Cells++
			dir := filepath.Join(root, fmt.Sprintf("cell-%s-op%d", step, op))
			line, failed, err := w.cell(dir, step, op)
			if err != nil {
				return nil, err
			}
			if failed {
				rep.Failures++
			}
			rep.lines = append(rep.lines, line)
		}
	}
	return rep, nil
}

// chaosWorkload is the write sequence every cell replays.
type chaosWorkload struct {
	o        ChaosOptions
	keys     []string // chaosSeeds seeded keys, then one per Put
	payloads [][]byte
}

// run seeds dir on the host filesystem, then opens a cache over it on
// fsys and Puts every key, returning the indexes of the keys whose
// write completed, seeds included, in write order.
func (w chaosWorkload) run(dir string, fsys vfs.FS) ([]int, error) {
	c0, err := New(Options{Dir: dir, Durable: w.o.Durable})
	if err != nil {
		return nil, fmt.Errorf("chaos: seeding %s: %w", dir, err)
	}
	var completed []int
	for i := 0; i < chaosSeeds; i++ {
		if err := c0.Put(w.keys[i], w.payloads[i]); err != nil {
			return nil, fmt.Errorf("chaos: seeding %s: %w", dir, err)
		}
		completed = append(completed, i)
	}
	torn := encodeEntry(w.payloads[0], pathKey("chaos-torn"))
	if _, err := (vfs.OS{}).Append(filepath.Join(dir, logName), torn[:len(torn)/2], false); err != nil {
		return nil, err
	}

	// Retries and the breaker are disabled so the cell's fault pattern —
	// and therefore the report — is a pure function of the crash point.
	c, err := New(Options{
		Dir: dir, MemEntries: 1, FS: fsys, Durable: w.o.Durable, DiskEntries: chaosDiskEntries,
		Retries: -1, BreakerThreshold: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: opening %s: %w", dir, err)
	}
	for i := chaosSeeds; i < len(w.keys); i++ {
		if c.Put(w.keys[i], w.payloads[i]) == nil {
			completed = append(completed, i)
		}
	}
	return completed, nil
}

// cell executes one crash cell and checks the recovery contract.
func (w chaosWorkload) cell(dir string, step vfs.CrashStep, op int) (line string, failed bool, err error) {
	spec := vfs.Spec{Class: vfs.Crash, Seed: w.o.Seed + int64(op), CrashOp: int64(op), CrashStep: step}
	completed, err := w.run(dir, vfs.NewFaulty(spec))
	if err != nil {
		return "", false, err
	}
	putErrs := len(w.keys) - len(completed)

	// "Restart": a fresh, unbounded cache over the same directory on a
	// healthy filesystem runs the recovery scan and serves every record
	// the log still holds.
	reg := obs.NewRegistry()
	c2, err := New(Options{Dir: dir, MemEntries: 1, Metrics: reg.Scope("cache")})
	if err != nil {
		return "", false, fmt.Errorf("chaos: reopening %s: %w", dir, err)
	}

	var problems []string
	if n := countTempFiles(dir); n > 0 {
		problems = append(problems, fmt.Sprintf("%d temp files survived recovery", n))
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil && !os.IsNotExist(err) {
		return "", false, err
	}
	for _, s := range scanLog(raw) {
		if s.kind != spanValid {
			problems = append(problems, fmt.Sprintf("recovered log holds %d invalid bytes at %d", s.n, s.off))
			break
		}
	}
	intact, torn := 0, 0
	served := make([]bool, len(w.keys))
	for i, k := range w.keys {
		if got, ok := c2.Get(k); ok {
			if bytes.Equal(got, w.payloads[i]) {
				intact++
				served[i] = true
			} else {
				torn++
			}
		}
	}
	if torn > 0 {
		problems = append(problems, fmt.Sprintf("%d torn payloads served", torn))
	}
	if w.o.Durable {
		// Evictions go by write order, so the crashed cache's live set
		// was the newest chaosDiskEntries completed writes.
		for _, i := range completed[max(0, len(completed)-chaosDiskEntries):] {
			if !served[i] {
				problems = append(problems, fmt.Sprintf("completed durable put %s lost", w.keys[i]))
			}
		}
	}
	// The recovered cache must be fully writable and then serve every
	// key from disk (a third open forces the disk path past the tiny
	// memory layer).
	for i, k := range w.keys {
		if perr := c2.Put(k, w.payloads[i]); perr != nil {
			problems = append(problems, fmt.Sprintf("re-put %s failed: %v", k, perr))
			break
		}
	}
	c3, err := New(Options{Dir: dir, MemEntries: 1})
	if err != nil {
		return "", false, fmt.Errorf("chaos: third open of %s: %w", dir, err)
	}
	for i, k := range w.keys {
		got, ok := c3.Get(k)
		if !ok || !bytes.Equal(got, w.payloads[i]) {
			problems = append(problems, fmt.Sprintf("post-recovery %s not served intact", k))
			break
		}
	}

	verdict := "ok"
	if len(problems) > 0 {
		verdict = "FAIL: " + strings.Join(problems, "; ")
	}
	line = fmt.Sprintf("crash step=%-13s op=%d durable=%v: put_errors=%d recovered=%d quarantined=%d intact=%d/%d %s",
		step, op, w.o.Durable, putErrs,
		reg.Counter("cache.recovered").Value(), reg.Counter("cache.quarantined").Value(),
		intact, len(w.keys), verdict)
	return line, len(problems) > 0, nil
}

// chaosPayload derives a deterministic pseudo-random payload for key i.
func chaosPayload(seed int64, i int) []byte {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)
	n := 64 + int(h%256)
	b := make([]byte, n)
	for j := range b {
		h = h*6364136223846793005 + 1442695040888963407
		b[j] = byte(h >> 56)
	}
	return b
}

// countTempFiles counts surviving .tmp-* files anywhere under dir.
func countTempFiles(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			n++
		}
		return nil
	})
	return n
}

// TestChaosCrashSweep runs the crash-consistency harness across every
// crash point of every append and rewrite, in both durability modes:
// zero contract violations, and a byte-identical report for the same
// seed (the chaos run itself is deterministic, so a failure is
// replayable from its seed alone).
func TestChaosCrashSweep(t *testing.T) {
	for _, durable := range []bool{false, true} {
		o := ChaosOptions{Seed: 1, Puts: 4, Durable: durable}
		r1, err := RunChaos(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Failures != 0 {
			t.Fatalf("durable=%v: %d contract violations:\n%s", durable, r1.Failures, r1)
		}
		if r1.Appends != o.Puts || r1.Rewrites < 2 {
			t.Fatalf("durable=%v: workload made %d appends and %d rewrites, want %d and >= 2 (recovery + compaction)",
				durable, r1.Appends, r1.Rewrites, o.Puts)
		}
		if want := 3*r1.Appends + 4*r1.Rewrites; r1.Cells != want {
			t.Fatalf("durable=%v: %d cells, want %d", durable, r1.Cells, want)
		}
		r2, err := RunChaos(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		if r1.String() != r2.String() {
			t.Fatalf("durable=%v: report not byte-identical across runs:\n--- run 1\n%s--- run 2\n%s",
				durable, r1, r2)
		}
	}
}

// TestChaosReportShape pins the report's observable claims: durable mode
// never loses a Put that completed (the sweep checks it cell by cell),
// and the non-durable after-append rows — where the log's new length
// survived but the record's bytes past a seed-derived byte did not — are
// where quarantines appear, and the only place. Each of those rows drops
// its torn record one way or the other: quarantined when the tear falls
// in the payload (the header parses, the checksum fails), recovered as
// junk when it falls in the header.
func TestChaosReportShape(t *testing.T) {
	r, err := RunChaos(t.TempDir(), ChaosOptions{Seed: 2, Puts: 5, Durable: false})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 0 {
		t.Fatalf("violations:\n%s", r)
	}
	s := r.String()
	for _, step := range vfs.CrashSteps() {
		if !strings.Contains(s, "step="+step.String()+" ") {
			t.Fatalf("report missing the %s rows:\n%s", step, s)
		}
	}
	sawQuarantine := false
	for _, line := range strings.Split(s, "\n") {
		afterAppend := strings.Contains(line, "step=after-append")
		if afterAppend && strings.Contains(line, "quarantined=0") && strings.Contains(line, "recovered=0") {
			t.Fatalf("an after-append crash left its torn record in place: %s", line)
		}
		if !strings.HasPrefix(line, "crash step=") || strings.Contains(line, "quarantined=0") {
			continue
		}
		if !afterAppend {
			t.Fatalf("a quarantine outside the after-append rows: %s", line)
		}
		sawQuarantine = true
	}
	if !sawQuarantine {
		t.Fatalf("no after-append cell quarantined a torn record:\n%s", s)
	}
}
