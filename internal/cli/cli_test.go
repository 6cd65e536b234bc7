package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workloads"
)

func TestExitCodes(t *testing.T) {
	if c := ExitCode(nil); c != 0 {
		t.Errorf("nil = %d, want 0", c)
	}
	if c := ExitCode(errors.New("boom")); c != 1 {
		t.Errorf("plain error = %d, want 1", c)
	}
	if c := ExitCode(Usagef("bad flag")); c != 2 {
		t.Errorf("usage error = %d, want 2", c)
	}
	if c := ExitCode(Exit(3)); c != 3 {
		t.Errorf("Exit(3) = %d, want 3", c)
	}
	if c := ExitCode(fmt.Errorf("wrapped: %w", Usagef("inner"))); c != 2 {
		t.Errorf("wrapped usage error = %d, want 2", c)
	}
}

// failAfter writes n bytes and then fails — a truncated-write simulator.
type failAfter struct {
	n int
}

func (f *failAfter) write(w io.Writer) error {
	if f.n > 0 {
		if _, err := w.Write([]byte(strings.Repeat("x", f.n))); err != nil {
			return err
		}
	}
	return errors.New("injected write failure")
}

// TestWriteFileAtomicNeverLeavesPartialFile is the regression test for
// the os.Exit truncation bug: a failing writer must leave no file at the
// destination and no temp litter in the directory.
func TestWriteFileAtomicNeverLeavesPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	err := WriteFileAtomic(path, (&failAfter{n: 512}).write)
	if err == nil {
		t.Fatal("expected write failure")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("partial file left at %s", path)
	}
	left, _ := os.ReadDir(dir)
	if len(left) != 0 {
		t.Fatalf("temp litter left behind: %v", left)
	}
}

// TestWriteFileAtomicPreservesPreviousArtifact: a failing rewrite must
// not clobber the previous complete artifact.
func TestWriteFileAtomicPreservesPreviousArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	good := []byte(`{"ok": true}`)
	if err := WriteFileAtomic(path, func(w io.Writer) error { _, err := w.Write(good); return err }); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, (&failAfter{n: 3}).write); err == nil {
		t.Fatal("expected write failure")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(good) {
		t.Fatalf("previous artifact clobbered: %q", got)
	}
}

// TestFailingRunFlushesCompleteArtifacts emulates a command body that
// records observability data and then fails: the deferred FlushTo must
// still write complete, parseable JSON files.
func TestFailingRunFlushesCompleteArtifacts(t *testing.T) {
	dir := t.TempDir()
	flags := &ObsFlags{
		Trace:   filepath.Join(dir, "trace.json"),
		Metrics: filepath.Join(dir, "metrics.json"),
	}

	run := func() (err error) {
		o := flags.New()
		defer flags.FlushTo(o, &err)
		// Record something, then fail mid-run the way a budget overrun or
		// bad workload would.
		o.Metrics.Counter("test.runs").Inc()
		o.Trace.Lane(1, 0).Span("phase", "pipeline", 10)
		return errors.New("simulated mid-run failure")
	}

	err := run()
	if err == nil || err.Error() != "simulated mid-run failure" {
		t.Fatalf("run error = %v", err)
	}
	for _, p := range []string{flags.Trace, flags.Metrics} {
		raw, rerr := os.ReadFile(p)
		if rerr != nil {
			t.Fatalf("artifact %s missing after failing run: %v", p, rerr)
		}
		if !json.Valid(raw) {
			t.Fatalf("artifact %s is not complete JSON after failing run:\n%s", p, raw)
		}
	}
}

// TestFailingFlushFailsRun: an artifact that cannot be written turns a
// successful run into exit status 1 and leaves a failed run's own error
// alone.
func TestFailingFlushFailsRun(t *testing.T) {
	flags := &ObsFlags{Metrics: filepath.Join(t.TempDir(), "no-such-dir", "metrics.json")}
	run := func(fail error) (err error) {
		o := flags.New()
		defer flags.FlushTo(o, &err)
		return fail
	}
	if err := run(nil); err == nil || ExitCode(err) != 1 {
		t.Errorf("clean run with an unwritable -metrics: error %v, exit status %d, want 1", err, ExitCode(err))
	}
	if err := run(Usagef("bad flag")); ExitCode(err) != 2 || err.Error() != "bad flag" {
		t.Errorf("the flush error replaced the run's own: %v", err)
	}
}

func TestFlushNilObsIsNoop(t *testing.T) {
	flags := &ObsFlags{}
	var err error
	if flags.FlushTo(nil, &err); err != nil {
		t.Fatal(err)
	}
	if flags.New() != nil {
		t.Fatal("New without paths should be nil")
	}
}

func TestResolveWorkloadListsValidNames(t *testing.T) {
	if _, err := ResolveWorkload("ks"); err != nil {
		t.Fatalf("ks: %v", err)
	}
	_, err := ResolveWorkload("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	if ExitCode(err) != 2 {
		t.Errorf("exit code = %d, want 2", ExitCode(err))
	}
	for _, name := range workloads.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}

func TestResolveWorkloadsSelections(t *testing.T) {
	all, err := ResolveWorkloads("")
	if err != nil || len(all) != len(workloads.Names()) {
		t.Fatalf("empty selection: %d workloads, err=%v", len(all), err)
	}
	some, err := ResolveWorkloads(" ks , 181.mcf ")
	if err != nil || len(some) != 2 || some[0].Name != "ks" || some[1].Name != "181.mcf" {
		t.Fatalf("csv selection = %v, err=%v", some, err)
	}
	if _, err := ResolveWorkloads("ks,bogus"); ExitCode(err) != 2 {
		t.Fatalf("bad csv selection should be usage error, got %v", err)
	}
}

func TestResolvePartitionerListsValidNames(t *testing.T) {
	for _, name := range []string{"gremio", "GREMIO", "dswp", "DSWP"} {
		if _, err := ResolvePartitioner(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	_, err := ResolvePartitioner("stripe")
	if err == nil {
		t.Fatal("expected error")
	}
	if ExitCode(err) != 2 {
		t.Errorf("exit code = %d, want 2", ExitCode(err))
	}
	for _, name := range PartitionerNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}
