// Package vfs abstracts the narrow filesystem surface the serving stack
// touches (read, atomic write, remove, rename, mkdir, readdir, stat) so
// that every disk operation behind the artifact cache is interceptable.
// Two implementations exist: OS, the passthrough over the host
// filesystem, and Faulty, a seeded fault injector in the style of
// internal/fault that can fill the disk, tear writes, fail renames,
// return EIO on reads, and freeze all writes at a chosen crash point to
// simulate kill -9. Faulty shares that package's seeded machinery
// (Splitmix, ClassSalt, the embedded fault.Cadence); its class table and
// report format are its own on purpose — a filesystem fault is judged by
// the cache's recovery scan and checksums, not by the execution oracle.
//
// Durability is folded into the write primitive rather than exposed as a
// separate sync call: WriteFile(path, data, durable=true) fsyncs the
// temp file before the rename and the parent directory after it, which
// is the exact sequence that makes an entry survive a post-rename power
// loss. With durable=false the write is still atomic with respect to
// process crashes (temp + rename) but the renamed bytes may be lost or
// torn by a machine crash — which is the case the cache's recovery scan
// and checksummed envelopes exist to detect.
package vfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// FS is the filesystem surface of the serving stack. All paths are host
// paths; implementations must keep the atomic-write contract of
// WriteFile (a reader never observes a half-written file under its
// final name unless the storage itself tore the bytes).
type FS interface {
	// ReadFile returns the contents of path.
	ReadFile(path string) ([]byte, error)
	// WriteFile atomically replaces path with data: temp file in the
	// same directory, write, rename. durable additionally fsyncs the
	// temp file before the rename and the parent directory after it.
	WriteFile(path string, data []byte, durable bool) error
	// Remove deletes path.
	Remove(path string) error
	// Rename moves oldpath to newpath (same filesystem).
	Rename(oldpath, newpath string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// Stat describes path.
	Stat(path string) (fs.FileInfo, error)
}

// OS is the passthrough FS over the host filesystem.
type OS struct{}

func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OS) WriteFile(path string, data []byte, durable bool) error {
	return atomicWrite(path, data, durable)
}

func (OS) Remove(path string) error                  { return os.Remove(path) }
func (OS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (OS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (OS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (OS) Stat(path string) (fs.FileInfo, error)     { return os.Stat(path) }

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
