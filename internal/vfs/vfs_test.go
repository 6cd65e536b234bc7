package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func tempNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// TestOSAtomicWrite: the passthrough write lands complete under the
// final name, replaces prior content, and leaves no temp residue — in
// both durability modes.
func TestOSAtomicWrite(t *testing.T) {
	for _, durable := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "entry")
		var fs FS = OS{}
		if err := fs.WriteFile(path, []byte("first"), durable); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(path, []byte("second"), durable); err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "second" {
			t.Fatalf("durable=%v: read %q, want %q", durable, got, "second")
		}
		if tmps := tempNames(t, dir); len(tmps) != 0 {
			t.Fatalf("durable=%v: temp residue %v", durable, tmps)
		}
	}
}

// TestOSAppendReadAt: appends land back to back, each at the offset it
// reports — also when a second writer appended in between — and ReadAt
// reads any span back; a span past the end reads short.
func TestOSAppendReadAt(t *testing.T) {
	for _, durable := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "log")
		var fs FS = OS{}
		var offs []int64
		for _, rec := range []string{"first", "second", "third"} {
			off, err := fs.Append(path, []byte(rec), durable)
			if err != nil {
				t.Fatal(err)
			}
			offs = append(offs, off)
			// Another writer's bytes between ours.
			if _, err := (OS{}).Append(path, []byte("|"), false); err != nil {
				t.Fatal(err)
			}
		}
		if want := []int64{0, 6, 13}; fmt.Sprint(offs) != fmt.Sprint(want) {
			t.Fatalf("durable=%v: offsets %v, want %v", durable, offs, want)
		}
		got, err := fs.ReadAt(path, 6, 6)
		if err != nil || string(got) != "second" {
			t.Fatalf("durable=%v: ReadAt = %q, %v; want \"second\"", durable, got, err)
		}
		got, err = fs.ReadAt(path, 13, 10)
		if !errors.Is(err, io.ErrUnexpectedEOF) || string(got) != "third|" {
			t.Fatalf("durable=%v: short ReadAt = %q, %v; want the tail and io.ErrUnexpectedEOF", durable, got, err)
		}
	}
}

// TestFaultyDeterminism: the same spec over the same operation sequence
// injects faults at identical points, run after run.
func TestFaultyDeterminism(t *testing.T) {
	run := func() []int {
		dir := t.TempDir()
		f := NewFaulty(Spec{Class: TornWrite, Seed: 42})
		var fired []int
		for i := 0; i < 20; i++ {
			path := filepath.Join(dir, "e")
			before := f.Injected()
			if err := f.WriteFile(path, bytes.Repeat([]byte{byte(i)}, 100), false); err != nil {
				t.Fatal(err)
			}
			if f.Injected() > before {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults fired in 20 writes")
	}
	if len(a) != len(b) {
		t.Fatalf("fired %v then %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fired %v then %v", a, b)
		}
	}
}

// TestFaultyENOSPC: writes past the byte budget keep a partial temp
// file (a real full disk holds onto the bytes that fit) and fail with
// ENOSPC — which Transient correctly refuses to retry.
func TestFaultyENOSPC(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(Spec{Class: WriteENOSPC, Seed: 7, ByteBudget: 150})
	path := filepath.Join(dir, "e")
	if err := f.WriteFile(path, make([]byte, 100), false); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	err := f.WriteFile(filepath.Join(dir, "e2"), make([]byte, 100), false)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("over-budget write error = %v, want ENOSPC", err)
	}
	if Transient(err) {
		t.Fatal("ENOSPC classified transient; retrying a full disk burns deadlines")
	}
	// The partial temp file holds exactly the remaining 50 budget bytes.
	tmps := tempNames(t, dir)
	if len(tmps) != 1 {
		t.Fatalf("temp files = %v, want exactly the partial one", tmps)
	}
	st, err := os.Stat(filepath.Join(dir, tmps[0]))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 50 {
		t.Fatalf("partial temp size = %d, want the remaining 50 budget bytes", st.Size())
	}
	// The disk stays full: even a tiny later write fails.
	if err := f.WriteFile(filepath.Join(dir, "e3"), []byte{1}, false); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-full write error = %v, want ENOSPC", err)
	}
}

// TestFaultyAppendENOSPC: an append past the byte budget leaves the
// part that fit at the end of the file and fails with ENOSPC.
func TestFaultyAppendENOSPC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	f := NewFaulty(Spec{Class: WriteENOSPC, Seed: 7, ByteBudget: 150})
	if _, err := f.Append(path, make([]byte, 100), false); err != nil {
		t.Fatalf("append within budget: %v", err)
	}
	if _, err := f.Append(path, bytes.Repeat([]byte{1}, 100), false); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("over-budget append error = %v, want ENOSPC", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 150 {
		t.Fatalf("log size = %d, want 150: the 50 budget bytes of the failed append kept", st.Size())
	}
}

// TestFaultyReadEIO: scheduled reads fail with a transient EIO, and the
// schedule's period >= 2 guarantees the immediate retry succeeds.
func TestFaultyReadEIO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e")
	if err := os.WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(Spec{Class: ReadEIO, Seed: 3})
	sawFault := false
	for i := 0; i < 20; i++ {
		_, err := f.ReadFile(path)
		if err == nil {
			continue
		}
		if !errors.Is(err, syscall.EIO) || !Transient(err) {
			t.Fatalf("read fault = %v, want transient EIO", err)
		}
		sawFault = true
		// Period >= 2: the very next read must succeed.
		if got, rerr := f.ReadFile(path); rerr != nil || string(got) != "payload" {
			t.Fatalf("retry after EIO: %q, %v", got, rerr)
		}
	}
	if !sawFault {
		t.Fatal("no read fault fired in 20 reads")
	}
	// ReadAt runs on the same schedule.
	g := NewFaulty(Spec{Class: ReadEIO, Seed: 3})
	fired := 0
	for i := 0; i < 20; i++ {
		got, err := g.ReadAt(path, 3, 4)
		if errors.Is(err, syscall.EIO) {
			fired++
		} else if err != nil || string(got) != "load" {
			t.Fatalf("ReadAt = %q, %v", got, err)
		}
	}
	if fired == 0 {
		t.Fatal("no ReadAt fault fired in 20 reads")
	}
}

// TestFaultyTornWrite: a scheduled tear reports success but the visible
// file is strictly shorter than the payload — the silent-corruption
// class only checksums can catch.
func TestFaultyTornWrite(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(Spec{Class: TornWrite, Seed: 11})
	payload := bytes.Repeat([]byte("x"), 200)
	torn := false
	for i := 0; i < 20 && !torn; i++ {
		path := filepath.Join(dir, "e")
		if err := f.WriteFile(path, payload, false); err != nil {
			t.Fatalf("torn write must report success, got %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < len(payload) {
			torn = true
		}
	}
	if !torn {
		t.Fatal("no torn write in 20 attempts")
	}
}

// TestFaultyTornAppend: a scheduled tear reports success at the offset
// the record starts at, but only a prefix of it lands; the next append
// starts right after that prefix and reports so.
func TestFaultyTornAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	f := NewFaulty(Spec{Class: TornWrite, Seed: 11})
	payload := bytes.Repeat([]byte("x"), 200)
	var end int64
	for i := 0; i < 20; i++ {
		off, err := f.Append(path, payload, false)
		if err != nil {
			t.Fatalf("torn append must report success, got %v", err)
		}
		if off != end {
			t.Fatalf("append %d reported offset %d, want %d (the end of the file before it)", i, off, end)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		end = st.Size()
	}
	if end >= 20*int64(len(payload)) {
		t.Fatal("no torn append in 20 attempts")
	}
}

// TestFaultyRenameFail: the commit-point failure leaves a complete but
// orphaned temp file — the leak the cache recovery scan exists for.
func TestFaultyRenameFail(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(Spec{Class: RenameFail, Seed: 5})
	payload := []byte("payload-bytes")
	failedPath := ""
	for i := 0; i < 20 && failedPath == ""; i++ {
		// Distinct paths per write, so the failed commit's absence is
		// observable (a retry to the same path would mask it).
		path := filepath.Join(dir, fmt.Sprintf("e%d", i))
		err := f.WriteFile(path, payload, false)
		if err == nil {
			continue
		}
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("rename fault = %v, want EIO", err)
		}
		failedPath = path
	}
	if failedPath == "" {
		t.Fatal("no rename failure in 20 writes")
	}
	if _, err := os.Stat(failedPath); !os.IsNotExist(err) {
		t.Fatal("failed rename still produced the final file")
	}
	tmps := tempNames(t, dir)
	if len(tmps) == 0 {
		t.Fatal("no orphaned temp file after rename failure")
	}
	got, err := os.ReadFile(filepath.Join(dir, tmps[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("orphaned temp holds %q, want the complete payload", got)
	}
}

// TestFaultyCrashSteps verifies the exact disk state each crash point
// leaves behind, and that the frozen filesystem rejects every mutation
// afterwards.
func TestFaultyCrashSteps(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 300)
	for _, tc := range []struct {
		step      CrashStep
		durable   bool
		wantFile  bool // final name exists
		wantWhole bool // ...with the complete payload
		wantTemp  bool // a temp file survives
	}{
		{CrashBeforeTemp, false, false, false, false},
		{CrashMidTemp, false, false, false, true},
		{CrashBeforeRename, false, false, false, true},
		{CrashAfterRename, false, true, false, false},
		{CrashAfterRename, true, true, true, false},
	} {
		t.Run(tc.step.String()+map[bool]string{true: "-durable", false: ""}[tc.durable], func(t *testing.T) {
			dir := t.TempDir()
			f := NewFaulty(Spec{Class: Crash, Seed: 9, CrashOp: 1, CrashStep: tc.step})
			path := filepath.Join(dir, "e")
			if err := f.WriteFile(path, payload, tc.durable); !errors.Is(err, ErrCrashed) {
				t.Fatalf("crash write error = %v, want ErrCrashed", err)
			}
			if !f.Crashed() {
				t.Fatal("Crashed() = false after the crash point")
			}
			got, err := os.ReadFile(path)
			switch {
			case tc.wantWhole:
				if err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("want complete entry, got %d bytes, err %v", len(got), err)
				}
			case tc.wantFile:
				if err != nil {
					t.Fatalf("want a (torn) entry under the final name: %v", err)
				}
				if bytes.Equal(got, payload) {
					t.Fatal("non-durable after-rename crash left a complete entry; want torn")
				}
			default:
				if !os.IsNotExist(err) {
					t.Fatalf("want no final file, got err %v", err)
				}
			}
			if haveTemp := len(tempNames(t, dir)) > 0; haveTemp != tc.wantTemp {
				t.Fatalf("temp residue = %v, want %v", haveTemp, tc.wantTemp)
			}
			// The dead process's filesystem is frozen.
			if err := f.WriteFile(filepath.Join(dir, "later"), []byte{1}, false); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-crash write error = %v, want ErrCrashed", err)
			}
			if err := f.Remove(path); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-crash remove error = %v, want ErrCrashed", err)
			}
			if err := f.MkdirAll(filepath.Join(dir, "sub")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-crash mkdir error = %v, want ErrCrashed", err)
			}
			if _, err := f.Append(path, []byte{1}, false); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-crash append error = %v, want ErrCrashed", err)
			}
			// Reads still work: recovery tooling inspects the dead disk.
			if _, err := f.ReadDir(dir); err != nil {
				t.Fatalf("post-crash readdir: %v", err)
			}
		})
	}
}

// TestFaultyAppendCrashSteps verifies what each append crash point leaves
// at the end of a log that already holds one record: nothing, a prefix,
// the whole record (durable), or the record's length with its bytes
// past the tear zeroed (not durable). A rewrite step never fires inside
// an append, nor an append step inside a WriteFile.
func TestFaultyAppendCrashSteps(t *testing.T) {
	prior := []byte("prior-record|")
	payload := bytes.Repeat([]byte("y"), 300)
	for _, tc := range []struct {
		step    CrashStep
		durable bool
		check   func(tail []byte) bool
	}{
		{CrashBeforeAppend, false, func(tail []byte) bool { return len(tail) == 0 }},
		{CrashMidAppend, false, func(tail []byte) bool {
			return len(tail) < len(payload) && bytes.Equal(tail, payload[:len(tail)])
		}},
		{CrashAfterAppend, true, func(tail []byte) bool { return bytes.Equal(tail, payload) }},
		{CrashAfterAppend, false, func(tail []byte) bool {
			k := bytes.IndexByte(tail, 0)
			return len(tail) == len(payload) && k >= 0 && bytes.Equal(tail[:k], payload[:k]) &&
				bytes.Count(tail[k:], []byte{0}) == len(tail)-k
		}},
	} {
		t.Run(tc.step.String()+map[bool]string{true: "-durable", false: ""}[tc.durable], func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "log")
			if err := os.WriteFile(path, prior, 0o644); err != nil {
				t.Fatal(err)
			}
			f := NewFaulty(Spec{Class: Crash, Seed: 9, CrashOp: 2, CrashStep: tc.step})
			// A WriteFile does not count toward an append step's CrashOp.
			if err := f.WriteFile(filepath.Join(dir, "other"), []byte("x"), false); err != nil {
				t.Fatalf("WriteFile before the crash: %v", err)
			}
			if _, err := f.Append(path, prior, false); err != nil {
				t.Fatalf("append 1: %v", err)
			}
			if _, err := f.Append(path, payload, tc.durable); !errors.Is(err, ErrCrashed) {
				t.Fatalf("crash append error = %v, want ErrCrashed", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tail := got[2*len(prior):]; !tc.check(tail) {
				t.Fatalf("log tail after the crash is %d bytes: %q", len(tail), tail)
			}
			if _, err := f.Append(path, []byte{1}, false); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-crash append error = %v, want ErrCrashed", err)
			}
		})
	}
}
