package vfs

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/fault"
)

// Class names one injectable filesystem fault class.
type Class string

const (
	// WriteENOSPC models a filling disk: once the cumulative bytes
	// written exceed the spec's byte budget, a write takes only the
	// remaining budget — into its temp file, or onto the end of the file
	// it appends to (a real full disk keeps the partial data) — and fails
	// with ENOSPC; every later write fails too.
	WriteENOSPC Class = "enospc"
	// ReadEIO models flaky storage on the read path: seed-scheduled
	// reads (ReadFile and ReadAt) fail with EIO. Consecutive reads never
	// both fire (the schedule period is at least two), so a single retry
	// is a meaningful recovery strategy.
	ReadEIO Class = "eio-read"
	// TornWrite models silently lossy storage: a seed-scheduled write
	// reports success but only its first k bytes land — the renamed file
	// of a WriteFile, or the end of the file an Append extends. Only a
	// content checksum can catch this class.
	TornWrite Class = "torn-write"
	// RenameFail models a failure at the commit point of a WriteFile:
	// the temp file is fully written, the rename fails with EIO, and the
	// orphaned temp file is left behind — the leak the recovery scan must
	// clean up.
	RenameFail Class = "rename-fail"
	// Crash models kill -9 at a pinned point: the CrashOp-th Append (for
	// an append step) or WriteFile (for a rewrite step) stops at
	// CrashStep, leaving whatever a real crash would leave, and every
	// subsequent mutating operation fails with ErrCrashed until the
	// "process" is restarted on a fresh FS.
	Crash Class = "crash"
)

// CrashStep pins where inside a write a Crash lands. The append steps
// pin a point inside an Append, the others a point inside a WriteFile's
// temp + rename.
type CrashStep int

const (
	// CrashBeforeTemp dies before anything touches the disk.
	CrashBeforeTemp CrashStep = iota
	// CrashMidTemp dies with the temp file truncated at a seed-derived
	// byte.
	CrashMidTemp
	// CrashBeforeRename dies with the temp file complete but never
	// renamed.
	CrashBeforeRename
	// CrashAfterRename dies after the rename. Without durability the
	// file's data blocks were never synced, so the visible file is torn
	// at a seed-derived byte; with durable=true the pre-rename fsync
	// makes the file complete and the crash harmless.
	CrashAfterRename
	// CrashBeforeAppend dies before the append touches the file.
	CrashBeforeAppend
	// CrashMidAppend dies with only a seed-derived prefix of the data
	// appended.
	CrashMidAppend
	// CrashAfterAppend dies after the append. Without durability the
	// file's new length survived but its data blocks past a seed-derived
	// byte did not: they read back as zeros. With durable=true the fsync
	// makes the appended bytes complete and the crash harmless.
	CrashAfterAppend
)

// CrashSteps returns every crash point in sweep order: the append steps,
// then the rewrite steps.
func CrashSteps() []CrashStep {
	return []CrashStep{
		CrashBeforeAppend, CrashMidAppend, CrashAfterAppend,
		CrashBeforeTemp, CrashMidTemp, CrashBeforeRename, CrashAfterRename,
	}
}

// Append reports whether the step lands inside an Append (otherwise it
// lands inside a WriteFile).
func (s CrashStep) Append() bool { return s >= CrashBeforeAppend }

func (s CrashStep) String() string {
	switch s {
	case CrashBeforeTemp:
		return "before-temp"
	case CrashMidTemp:
		return "mid-temp"
	case CrashBeforeRename:
		return "before-rename"
	case CrashAfterRename:
		return "after-rename"
	case CrashBeforeAppend:
		return "before-append"
	case CrashMidAppend:
		return "mid-append"
	case CrashAfterAppend:
		return "after-append"
	}
	return fmt.Sprintf("step-%d", int(s))
}

// ErrCrashed is returned by every mutating operation after a Crash fault
// fired: the simulated process is dead and its writes are frozen.
var ErrCrashed = fmt.Errorf("vfs: injected crash: filesystem writes frozen")

// Spec names a fault schedule: a class, the seed that parameterizes
// where it fires, and — for Crash — the pinned crash point. A Spec is
// immutable and comparable; instantiate a fresh Faulty per run.
type Spec struct {
	Class Class
	Seed  int64
	// ByteBudget bounds total writable bytes under WriteENOSPC; <= 0
	// derives a budget from the seed.
	ByteBudget int64
	// CrashOp is the 1-based call the Crash class dies in, counting
	// Appends for an append step and WriteFiles for a rewrite step.
	CrashOp int64
	// CrashStep is where inside that write the crash lands.
	CrashStep CrashStep
}

// String renders the spec for reports.
func (s Spec) String() string {
	if s.Class == Crash {
		return fmt.Sprintf("%s(seed=%d,op=%d,%s)", s.Class, s.Seed, s.CrashOp, s.CrashStep)
	}
	return fmt.Sprintf("%s(seed=%d)", s.Class, s.Seed)
}

// Faulty injects a Spec's fault schedule over the host filesystem. Like
// fault.Injector, its decisions are a pure function of the spec and the
// sequence of operations presented, so the same seed over the same
// workload produces the same faults, byte for byte. All methods are
// safe for concurrent use (the cache calls them from request
// goroutines).
type Faulty struct {
	spec Spec
	fault.Cadence
	tearSalt uint64
	budget   int64

	mu       sync.Mutex
	reads    int64
	writes   int64 // every Append and WriteFile: the TornWrite/RenameFail schedule
	appends  int64
	replaces int64 // WriteFiles
	written  int64
	crashed  bool
	injected int64
}

// NewFaulty instantiates the schedule. Offset and period are small:
// filesystem operations are scarce compared to interpreter steps, and a
// period of at least two guarantees two consecutive operations never
// both fire (which is what makes one retry meaningful under ReadEIO).
func NewFaulty(spec Spec) *Faulty {
	f := &Faulty{spec: spec}
	h := fault.Splitmix(uint64(spec.Seed) ^ fault.ClassSalt(string(spec.Class)))
	f.Offset = int64(h%5) + 1
	h = fault.Splitmix(h)
	f.Period = int64(h%7) + 2
	h = fault.Splitmix(h)
	f.tearSalt = h
	f.budget = spec.ByteBudget
	if f.budget <= 0 {
		f.budget = int64(h%4096) + 512
	}
	return f
}

// Injected returns how many faults have fired so far.
func (f *Faulty) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Crashed reports whether the crash point has fired.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// tearAt picks the deterministic truncation point for an n-byte payload:
// strictly less than n, so a torn write is actually torn.
func (f *Faulty) tearAt(n int) int {
	if n <= 0 {
		return 0
	}
	return int(f.tearSalt % uint64(n))
}

func (f *Faulty) ReadFile(path string) ([]byte, error) {
	if err := f.readFault(path); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

func (f *Faulty) ReadAt(path string, off int64, n int) ([]byte, error) {
	if err := f.readFault(path); err != nil {
		return nil, err
	}
	return readAt(path, off, n)
}

// readFault advances the ReadEIO schedule by one read.
func (f *Faulty) readFault(path string) error {
	if f.spec.Class != ReadEIO {
		return nil
	}
	f.mu.Lock()
	f.reads++
	fire := f.Fires(f.reads)
	if fire {
		f.injected++
	}
	f.mu.Unlock()
	if fire {
		return fmt.Errorf("vfs: injected read fault on %s: %w", filepath.Base(path), syscall.EIO)
	}
	return nil
}

func (f *Faulty) WriteFile(path string, data []byte, durable bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	f.writes++
	f.replaces++
	n := f.writes
	switch f.spec.Class {
	case Crash:
		if !f.spec.CrashStep.Append() && f.replaces == f.spec.CrashOp {
			return f.crash(path, data, durable)
		}
	case WriteENOSPC:
		if f.written+int64(len(data)) > f.budget {
			// A real full disk accepts the bytes that still fit into the
			// temp file and leaves them there.
			if rem := f.budget - f.written; rem > 0 {
				writeTorn(path, data, int(rem), false)
				f.written = f.budget
			}
			f.injected++
			return fmt.Errorf("vfs: injected full disk writing %s: %w", filepath.Base(path), syscall.ENOSPC)
		}
		f.written += int64(len(data))
	case TornWrite:
		if f.Fires(n) {
			f.injected++
			// Reports success; the visible file is truncated at a
			// seed-derived byte.
			return writeTorn(path, data, f.tearAt(len(data)), true)
		}
	case RenameFail:
		if f.Fires(n) {
			f.injected++
			writeTorn(path, data, len(data), false) // orphaned complete temp
			return fmt.Errorf("vfs: injected rename failure on %s: %w", filepath.Base(path), syscall.EIO)
		}
	}
	return atomicWrite(path, data, durable)
}

func (f *Faulty) Append(path string, data []byte, durable bool) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	f.writes++
	f.appends++
	n := f.writes
	switch f.spec.Class {
	case Crash:
		if f.spec.CrashStep.Append() && f.appends == f.spec.CrashOp {
			return 0, f.crashAppend(path, data, durable)
		}
	case WriteENOSPC:
		if f.written+int64(len(data)) > f.budget {
			if rem := f.budget - f.written; rem > 0 {
				appendFile(path, data[:rem], false)
				f.written = f.budget
			}
			f.injected++
			return 0, fmt.Errorf("vfs: injected full disk appending to %s: %w", filepath.Base(path), syscall.ENOSPC)
		}
		f.written += int64(len(data))
	case TornWrite:
		if f.Fires(n) {
			f.injected++
			// Reports success at the offset the record starts at; only
			// its first k bytes reached the file.
			return appendFile(path, data[:f.tearAt(len(data))], false)
		}
	}
	return appendFile(path, data, durable)
}

// crashAppend leaves what a kill -9 at the pinned append step would,
// then freezes all subsequent mutations.
func (f *Faulty) crashAppend(path string, data []byte, durable bool) error {
	f.crashed = true
	f.injected++
	switch f.spec.CrashStep {
	case CrashMidAppend:
		appendFile(path, data[:f.tearAt(len(data))], false)
	case CrashAfterAppend:
		if durable {
			appendFile(path, data, true)
		} else {
			k := f.tearAt(len(data))
			lost := make([]byte, len(data))
			copy(lost, data[:k])
			appendFile(path, lost, false)
		}
	}
	return ErrCrashed
}

// crash performs the partial work a kill -9 at the pinned WriteFile step
// would leave behind, then freezes all subsequent mutations.
func (f *Faulty) crash(path string, data []byte, durable bool) error {
	f.crashed = true
	f.injected++
	switch f.spec.CrashStep {
	case CrashBeforeTemp:
		// Nothing reached the disk.
	case CrashMidTemp:
		writeTorn(path, data, f.tearAt(len(data)), false)
	case CrashBeforeRename:
		writeTorn(path, data, len(data), false)
	case CrashAfterRename:
		if durable {
			// fsync-before-rename means the renamed entry is complete;
			// the crash lands after a fully committed write.
			atomicWrite(path, data, true)
		} else {
			writeTorn(path, data, f.tearAt(len(data)), true)
		}
	}
	return ErrCrashed
}

func (f *Faulty) Remove(path string) error {
	if f.frozen() {
		return ErrCrashed
	}
	return os.Remove(path)
}

func (f *Faulty) MkdirAll(dir string) error {
	if f.frozen() {
		return ErrCrashed
	}
	return os.MkdirAll(dir, 0o755)
}

func (f *Faulty) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

func (f *Faulty) frozen() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// writeTorn writes the first k bytes of data to a temp file next to
// path; rename additionally commits the torn bytes under the final name
// (the silently-lossy-storage case), otherwise the temp file is left
// orphaned (the crashed/failed-commit case).
func writeTorn(path string, data []byte, k int, rename bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if k > len(data) {
		k = len(data)
	}
	_, werr := tmp.Write(data[:k])
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil && rename {
		werr = os.Rename(tmp.Name(), path)
	}
	return werr
}
