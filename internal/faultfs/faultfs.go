// Package faultfs abstracts the filesystem operations beneath SEBDB's
// durable layers (storage segments, snapshot checkpoints) behind a
// small interface with two implementations: the real OS filesystem and
// a fault injector that simulates crashes (power loss after a bounded
// number of mutating operations, with a torn final write), short reads
// and erroring Sync. The injector lets tests enumerate every
// crash-point in a write/rename/load sequence and assert crash-restart
// equivalence: state recovered after a crash must equal state rebuilt
// by full replay.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrCrashed is returned by every operation on an injector after its
// simulated crash fired: the "machine" is down until the test reopens
// the directory through a fresh FS.
var ErrCrashed = errors.New("faultfs: simulated crash")

// File is the handle surface the storage and snapshot layers need:
// sequential and positional reads, appends, Sync and Close.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
}

// FS is the filesystem surface the storage and snapshot layers need.
// All paths are interpreted as by the os package.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(path string) ([]os.DirEntry, error)
	// Open opens a file read-only.
	Open(path string) (File, error)
	// OpenFile generalises Open with os.O_* flags.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	ReadFile(path string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	Stat(path string) (os.FileInfo, error)
}

// Mapping is a read-only memory-mapped view of a whole file. The bytes
// stay valid until Close; mapping a file that is later renamed over
// keeps exposing the old contents (the mapping pins the inode), which
// is exactly the snapshot semantics the storage tier wants.
type Mapping interface {
	// Bytes returns the mapped contents.
	Bytes() []byte
	// Close unmaps the file.
	Close() error
}

// Mapper is an optional FS capability: map an existing file read-only.
// The OS filesystem implements it on platforms with mmap support; a
// filesystem that does not implement it (or returns an error) makes
// callers fall back to positional reads. The fault injector implements
// it too, so tests can force the fallback path (Options.MmapErrors).
type Mapper interface {
	Mmap(path string) (Mapping, error)
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error          { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(path string) ([]os.DirEntry, error)            { return os.ReadDir(path) }
func (osFS) ReadFile(path string) ([]byte, error)                  { return os.ReadFile(path) }
func (osFS) Rename(oldpath, newpath string) error                  { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                              { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error                { return os.Truncate(path, size) }
func (osFS) Stat(path string) (os.FileInfo, error)                 { return os.Stat(path) }
func (osFS) Open(path string) (File, error)                        { return os.Open(path) }
func (osFS) OpenFile(p string, f int, m os.FileMode) (File, error) { return os.OpenFile(p, f, m) }
func (osFS) Mmap(path string) (Mapping, error)                     { return mmapFile(path) }

// WriteAtomic replaces path with data so that a crash at any point
// leaves the old file or the new one, never a torn mix: data goes to a
// ".tmp" sibling, which is fsynced and closed before it is renamed over
// path. A crash before the rename leaves at most a stale temporary,
// which the next WriteAtomic truncates.
func WriteAtomic(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", tmp, err)
	}
	return fs.Rename(tmp, path)
}
