// Package cli carries the plumbing shared by every command in cmd/: the
// run()-returns-error main structure, atomic artifact writing, the
// -trace/-metrics observability flags, and name resolution for workloads
// and partitioners.
//
// The main structure exists to fix a real bug class: the commands used to
// call os.Exit from arbitrary error paths, which skipped deferred
// -trace/-metrics flushes and left truncated or missing JSON artifacts on
// disk. With Main, a command's body is an ordinary function — its defers
// (including the observability flush) always run before the process
// exits, and every artifact write is atomic (temp file + rename), so a
// failing run never leaves a partially-written file behind.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/workloads"
)

// exitError carries an explicit exit code through a run() error return.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string {
	if e.err == nil {
		return fmt.Sprintf("exit %d", e.code)
	}
	return e.err.Error()
}

func (e *exitError) Unwrap() error { return e.err }

// Usagef returns an error that makes Main print the message and exit
// with status 2 — the conventional code for bad invocations (unknown
// flag values, missing required flags).
func Usagef(format string, args ...any) error {
	return &exitError{code: 2, err: fmt.Errorf(format, args...)}
}

// Exit returns an error that makes Main exit with the given status
// without printing anything; commands that already reported their
// findings (failing checks, gate violations) use it instead of os.Exit
// so their defers still run.
func Exit(code int) error {
	return &exitError{code: code}
}

// ExitCode maps a run() error to the process exit status: nil is 0,
// Usagef/Exit errors carry their own code, anything else is 1.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	return 1
}

// Main runs a command body and exits with its status. Because run is an
// ordinary function, all its defers (artifact flushes, file closes) run
// before the process exits — os.Exit never truncates them.
func Main(name string, run func() error) {
	err := run()
	if err != nil {
		var ee *exitError
		if !errors.As(err, &ee) || ee.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		}
	}
	os.Exit(ExitCode(err))
}

// WriteFileAtomic writes one artifact via a temp file in the target
// directory and renames it into place. On any failure — including a
// write error halfway through — the temp file is removed and the
// destination is left untouched (a previous artifact at the same path
// survives intact). Readers therefore never observe a partially-written
// file.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// ObsFlags bundles the observability flags shared by experiments,
// gmtsched, and gmtprof (-trace, -metrics, -trace-limit) and the flush
// that writes their artifacts. Register the flags, build the sinks with
// New, and `defer of.FlushTo(o, &err)` inside run() — the deferred flush
// runs on error paths too, so a failing run still writes complete,
// parseable JSON of everything recorded up to the failure.
type ObsFlags struct {
	Trace      string
	Metrics    string
	TraceLimit int
	// Timeline opts into the detailed per-cycle lanes (set by the
	// command, not a flag here — gmtsched defaults it on, experiments
	// exposes -timeline).
	Timeline bool
}

// Register declares -trace, -metrics, and -trace-limit on the default
// flag set.
func (f *ObsFlags) Register() {
	flag.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON timeline to this file")
	flag.StringVar(&f.Metrics, "metrics", "", "write the metrics registry as JSON to this file")
	flag.IntVar(&f.TraceLimit, "trace-limit", 0, "trace event limit (0 = default; drops are counted, never silent)")
}

// New builds the observability sinks the flags ask for, or nil when no
// artifact was requested (recording is then free).
func (f *ObsFlags) New() *exp.Obs {
	if f.Trace == "" && f.Metrics == "" {
		return nil
	}
	o := &exp.Obs{Timeline: f.Timeline}
	if f.Trace != "" {
		o.Trace = obs.NewTrace()
		o.Trace.SetLimit(f.TraceLimit)
	}
	if f.Metrics != "" {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// FlushTo writes the requested artifacts atomically and reports dropped
// trace events on stderr. Safe to call with a nil o (writes nothing).
// Deferred inside run() with the address of run's named error result, it
// guarantees artifacts land complete whether the run succeeded or failed,
// and a failed flush fails a run that had not failed already.
func (f *ObsFlags) FlushTo(o *exp.Obs, err *error) {
	if ferr := f.flush(o); ferr != nil && *err == nil {
		*err = ferr
	}
}

func (f *ObsFlags) flush(o *exp.Obs) error {
	if o == nil {
		return nil
	}
	obs.RecordDrops(o.Trace, o.Metrics)
	if f.Trace != "" {
		if err := WriteFileAtomic(f.Trace, o.Trace.WriteJSON); err != nil {
			return err
		}
		if n := o.Trace.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d events over the limit dropped (raise -trace-limit)\n", n)
		}
	}
	if f.Metrics != "" {
		if err := WriteFileAtomic(f.Metrics, o.Metrics.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// ResolveWorkload maps a -workload flag value to its workload; an
// unknown name is a usage error (exit 2) listing the valid names.
func ResolveWorkload(name string) (*workloads.Workload, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, Usagef("unknown workload %q (valid: %s)", name, strings.Join(workloads.Names(), ", "))
	}
	return w, nil
}

// ResolveWorkloads maps a comma-separated -workloads value to workloads;
// "" and "all" select the full set. Unknown names are usage errors
// listing the valid names.
func ResolveWorkloads(sel string) ([]*workloads.Workload, error) {
	if sel == "" || sel == "all" {
		return workloads.All(), nil
	}
	var ws []*workloads.Workload
	for _, name := range strings.Split(sel, ",") {
		w, err := ResolveWorkload(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// PartitionerNames returns the flag spellings of the available
// partitioners (lower-case).
func PartitionerNames() []string {
	var names []string
	for _, p := range exp.Partitioners() {
		names = append(names, strings.ToLower(p.Name()))
	}
	return names
}

// ResolvePartitioner maps a -partitioner flag value (case-insensitive)
// to its partitioner; an unknown name is a usage error (exit 2) listing
// the valid names.
func ResolvePartitioner(name string) (partition.Partitioner, error) {
	for _, p := range exp.Partitioners() {
		if strings.EqualFold(p.Name(), name) {
			return p, nil
		}
	}
	return nil, Usagef("unknown partitioner %q (valid: %s)", name, strings.Join(PartitionerNames(), ", "))
}
