// Package vfs abstracts the narrow filesystem surface the serving stack
// touches (read, read at an offset, atomic write, append, remove, mkdir,
// readdir) so that every disk operation behind the artifact cache is
// interceptable.
// Two implementations exist: OS, the passthrough over the host
// filesystem, and Faulty, a seeded fault injector in the style of
// internal/fault that can fill the disk, tear writes, fail renames,
// return EIO on reads, and freeze all writes at a chosen crash point to
// simulate kill -9. Faulty shares that package's seeded machinery
// (Splitmix, ClassSalt, the embedded fault.Cadence); its class table and
// report format are its own on purpose — a filesystem fault is judged by
// the cache's recovery scan and checksums, not by the execution oracle.
//
// Durability is folded into the write primitives rather than exposed as
// a separate sync call: WriteFile(path, data, durable=true) fsyncs the
// temp file before the rename and the parent directory after it, which
// is the exact sequence that makes a file survive a post-rename power
// loss; Append(path, data, durable=true) fsyncs the file after the
// write, and its directory only when the append created the file. With
// durable=false a WriteFile is still atomic with respect to process
// crashes (temp + rename) and an Append still never overwrites another
// writer's bytes (O_APPEND), but the bytes may be lost or torn by a
// machine crash — which is the case the cache's recovery scan and
// checksummed envelopes exist to detect.
//
// Append and ReadAt open and close the file on every call: the cache
// keeps no file descriptor, so there is no descriptor lifecycle to get
// wrong and no Close in the interface.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// FS is the filesystem surface of the serving stack. All paths are host
// paths; implementations must keep the atomic-write contract of
// WriteFile (a reader never observes a half-written file under its
// final name unless the storage itself tore the bytes) and the
// append-only contract of Append (a write lands after every byte any
// writer appended before it).
type FS interface {
	// ReadFile returns the contents of path.
	ReadFile(path string) ([]byte, error)
	// ReadAt returns the n bytes of path starting at off. A file that
	// ends first yields the bytes it has and io.ErrUnexpectedEOF.
	ReadAt(path string, off int64, n int) ([]byte, error)
	// WriteFile atomically replaces path with data: temp file in the
	// same directory, write, rename. durable additionally fsyncs the
	// temp file before the rename and the parent directory after it.
	WriteFile(path string, data []byte, durable bool) error
	// Append writes data at the end of path (O_APPEND, creating the
	// file if needed) and returns the offset the data starts at.
	// durable additionally fsyncs the file, and its directory when the
	// append created it.
	Append(path string, data []byte, durable bool) (off int64, err error)
	// Remove deletes path.
	Remove(path string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
}

// OS is the passthrough FS over the host filesystem.
type OS struct{}

func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OS) ReadAt(path string, off int64, n int) ([]byte, error) { return readAt(path, off, n) }

func (OS) WriteFile(path string, data []byte, durable bool) error {
	return atomicWrite(path, data, durable)
}

func (OS) Append(path string, data []byte, durable bool) (int64, error) {
	return appendFile(path, data, durable)
}

func (OS) Remove(path string) error                  { return os.Remove(path) }
func (OS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (OS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

// readAt opens path, reads n bytes at off and closes it again.
func readAt(path string, off int64, n int) ([]byte, error) {
	if n < 0 || off < 0 {
		return nil, fmt.Errorf("vfs: reading %s: bad span (%d, %d)", filepath.Base(path), off, n)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	k, err := f.ReadAt(buf, off)
	if k == n {
		return buf, nil // ReadAt may report io.EOF for a span that ends the file
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf[:k], err
}

// appendFile is the shared O_APPEND writer. The start offset is read
// back from the file position the write leaves behind, so it is right
// even when another writer appended in between.
func appendFile(path string, data []byte, durable bool) (int64, error) {
	created := false
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		created = true
	}
	if err != nil {
		return 0, err
	}
	_, werr := f.Write(data)
	end, serr := f.Seek(0, io.SeekCurrent)
	if werr == nil {
		werr = serr
	}
	if werr == nil && durable {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil && created && durable {
		werr = syncDir(filepath.Dir(path))
	}
	if werr != nil {
		return 0, werr
	}
	return end - int64(len(data)), nil
}

// atomicWrite is the shared temp+rename writer: the file appears under
// its final name complete or not at all (process-crash atomicity).
func atomicWrite(path string, data []byte, durable bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil && durable {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	if durable {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry's name survives a
// crash (the rename itself lives in the directory's data blocks).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Transient reports whether err is a disk fault worth retrying: an I/O
// error that a bounded backoff-retry can plausibly outlast. A full disk
// (ENOSPC), a missing file, or a frozen (crashed) filesystem are not
// transient — retrying them only burns the request's deadline.
func Transient(err error) bool {
	return errors.Is(err, syscall.EIO)
}
