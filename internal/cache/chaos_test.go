package cache

import (
	"bytes"
	"fmt"
	"io/fs"
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
	// key); the sweep crashes at every one of them in turn. <= 0 means 5.
	Puts int
	// Durable runs the workload with fsync-on-Put, which upgrades the
	// after-rename crash point from "torn entry, quarantined on
	// recovery" to "complete entry, served intact".
	Durable bool
}

// ChaosReport is the outcome of RunChaos: one line per (crash step,
// crash op) cell plus a summary, deterministic for a given seed.
type ChaosReport struct {
	Cells    int
	Failures int
	lines    []string
}

// String renders the report, byte-identical across runs with one seed.
func (r *ChaosReport) String() string {
	var b strings.Builder
	for _, l := range r.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "chaos: %d cells, %d failures\n", r.Cells, r.Failures)
	return b.String()
}

// RunChaos sweeps a Put workload across every injected crash point: for
// each crash step and each 1-based Put index, a fresh cache under a
// crashing vfs.Faulty runs the workload, "restarts" as a second cache
// over the same directory on a healthy filesystem (which runs the
// recovery scan), and the cell then asserts the crash-consistency
// contract — no temp residue survives recovery, every served payload is
// byte-identical to what was Put (torn entries are quarantined, never
// served), and the recovered cache accepts writes and serves all keys
// afterwards. Cell directories are created under root.
func RunChaos(root string, o ChaosOptions) (*ChaosReport, error) {
	if o.Puts <= 0 {
		o.Puts = 5
	}
	keys := make([]string, o.Puts)
	payloads := make([][]byte, o.Puts)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos-key-%d", i)
		payloads[i] = chaosPayload(o.Seed, i)
	}

	rep := &ChaosReport{}
	for _, step := range vfs.CrashSteps() {
		for op := 1; op <= o.Puts; op++ {
			rep.Cells++
			dir := filepath.Join(root, fmt.Sprintf("cell-%s-op%d", step, op))
			line, failed, err := runChaosCell(dir, o, step, op, keys, payloads)
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

// runChaosCell executes one crash cell and checks the recovery contract.
func runChaosCell(dir string, o ChaosOptions, step vfs.CrashStep, op int,
	keys []string, payloads [][]byte) (line string, failed bool, err error) {
	spec := vfs.Spec{Class: vfs.Crash, Seed: o.Seed + int64(op), CrashOp: int64(op), CrashStep: step}
	faulty := vfs.NewFaulty(spec)
	// Retries and the breaker are disabled so the cell's fault pattern —
	// and therefore the report — is a pure function of the crash point.
	c, err := New(Options{
		Dir: dir, MemEntries: 1, FS: faulty, Durable: o.Durable,
		Retries: -1, BreakerThreshold: -1,
	})
	if err != nil {
		return "", false, fmt.Errorf("chaos: opening %s: %w", dir, err)
	}
	putErrs := 0
	for i, k := range keys {
		if c.Put(k, payloads[i]) != nil {
			putErrs++
		}
	}

	// "Restart": a fresh cache over the same directory on a healthy
	// filesystem runs the recovery scan.
	reg := obs.NewRegistry()
	c2, err := New(Options{Dir: dir, MemEntries: 1, Metrics: reg.Scope("cache")})
	if err != nil {
		return "", false, fmt.Errorf("chaos: reopening %s: %w", dir, err)
	}

	var problems []string
	if n := countTempFiles(dir); n > 0 {
		problems = append(problems, fmt.Sprintf("%d temp files survived recovery", n))
	}
	intact, torn := 0, 0
	for i, k := range keys {
		if got, ok := c2.Get(k); ok {
			if bytes.Equal(got, payloads[i]) {
				intact++
			} else {
				torn++
			}
		}
	}
	if torn > 0 {
		problems = append(problems, fmt.Sprintf("%d torn payloads served", torn))
	}
	// The recovered cache must be fully writable and then serve every
	// key from disk (a third open forces the disk path past the tiny
	// memory layer).
	for i, k := range keys {
		if perr := c2.Put(k, payloads[i]); perr != nil {
			problems = append(problems, fmt.Sprintf("re-put %s failed: %v", k, perr))
			break
		}
	}
	c3, err := New(Options{Dir: dir, MemEntries: 1})
	if err != nil {
		return "", false, fmt.Errorf("chaos: third open of %s: %w", dir, err)
	}
	for i, k := range keys {
		got, ok := c3.Get(k)
		if !ok || !bytes.Equal(got, payloads[i]) {
			problems = append(problems, fmt.Sprintf("post-recovery %s not served intact", k))
			break
		}
	}

	verdict := "ok"
	if len(problems) > 0 {
		verdict = "FAIL: " + strings.Join(problems, "; ")
	}
	line = fmt.Sprintf("crash step=%-13s op=%d durable=%v: put_errors=%d recovered=%d quarantined=%d intact=%d/%d %s",
		step, op, o.Durable, putErrs,
		reg.Counter("cache.recovered").Value(), reg.Counter("cache.quarantined").Value(),
		intact, len(keys), verdict)
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
// crash point in both durability modes: zero contract violations, and a
// byte-identical report for the same seed (the chaos run itself is
// deterministic, so a failure is replayable from its seed alone).
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
		if want := len(vfs.CrashSteps()) * o.Puts; r1.Cells != want {
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

// TestChaosReportShape pins the report's observable claims: durable
// mode never loses a Put that completed (every cell fully intact up to
// the crashed op), and the non-durable after-rename rows are where
// quarantines appear.
func TestChaosReportShape(t *testing.T) {
	r, err := RunChaos(t.TempDir(), ChaosOptions{Seed: 2, Puts: 3, Durable: false})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 0 {
		t.Fatalf("violations:\n%s", r)
	}
	s := r.String()
	if !strings.Contains(s, "step=after-rename") {
		t.Fatalf("report missing the after-rename rows:\n%s", s)
	}
	// Non-durable after-rename crashes tear the renamed entry; recovery
	// must quarantine at least one of them.
	sawQuarantine := false
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "step=after-rename") && !strings.Contains(line, "quarantined=0") {
			sawQuarantine = true
		}
	}
	if !sawQuarantine {
		t.Fatalf("no after-rename cell quarantined a torn entry:\n%s", s)
	}
}
