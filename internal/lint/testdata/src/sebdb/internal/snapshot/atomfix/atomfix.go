// Package atomfix seeds the snapshot half of the atomicwrite
// invariant: checkpoint files must be staged under a temp path and
// renamed into place, never created directly under their published
// name.
package atomfix

import (
	"io"
	"os"
)

// FS mirrors the faultfs surface the real snapshot code writes through.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (io.WriteCloser, error)
	Rename(oldpath, newpath string) error
}

// writeTo drains b into a freshly opened file.
func writeTo(f io.WriteCloser, b []byte) error {
	if _, err := f.Write(b); err != nil {
		f.Close() //sebdb:ignore-err the write error takes precedence
		return err
	}
	return f.Close()
}

// WriteDirect creates the final path directly — a crash mid-write
// leaves a torn file under the published name.
func WriteDirect(fs FS, path string, b []byte) error {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644) // want:atomicwrite
	if err != nil {
		return err
	}
	return writeTo(f, b)
}

// WriteAtomic stages into a tmp path and renames into place: the only
// published names are rename targets.
func WriteAtomic(fs FS, path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeTo(f, b); err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}

// Reopen read-only is fine anywhere: it cannot mint a new published
// name or change a byte under one.
func Reopen(fs FS, path string) (io.WriteCloser, error) {
	return fs.OpenFile(path, os.O_RDONLY, 0o644)
}

// The checkpoint log's protocol: frames are appended to the published
// log and synced before the manifest's tmp+rename pins the new length;
// the unpinned tail a crash leaves is cut back to the pinned length.

// Syncer is the durability half of the faultfs file surface.
type Syncer interface {
	io.WriteCloser
	Sync() error
}

// LogFS adds what the append protocol needs.
type LogFS interface {
	FS
	Truncate(name string, size int64) error
}

// Pin is what the manifest records about the log.
type Pin struct{ Size int64 }

// writeSynced is the shared tail of every durable write.
func writeSynced(f Syncer, b []byte) error {
	if _, err := f.Write(b); err != nil {
		f.Close() //sebdb:ignore-err the write error takes precedence
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //sebdb:ignore-err the sync error takes precedence
		return err
	}
	return f.Close()
}

// AppendFrame is the legal append: the tail past the pin is cut, the
// frame appended with O_APPEND and synced (through writeSynced).
func AppendFrame(fs LogFS, path string, pin Pin, frame []byte) error {
	if err := fs.Truncate(path, pin.Size); err != nil {
		return err
	}
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s, ok := f.(Syncer)
	if !ok {
		return f.Close()
	}
	return writeSynced(s, frame)
}

// AppendUnsynced appends but never syncs: the manifest could pin a
// length whose bytes a crash then loses.
func AppendUnsynced(fs LogFS, path string, frame []byte) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644) // want:atomicwrite
	if err != nil {
		return err
	}
	return writeTo(f, frame)
}

// OverwriteInPlace opens the published log for positional writes: a
// crash mid-write tears bytes the manifest already pins.
func OverwriteInPlace(fs LogFS, path string, frame []byte) error {
	f, err := fs.OpenFile(path, os.O_WRONLY, 0o644) // want:atomicwrite
	if err != nil {
		return err
	}
	return writeTo(f, frame)
}

// TruncateAnywhere cuts the log at a length nothing pins.
func TruncateAnywhere(fs LogFS, path string, n int64) error {
	return fs.Truncate(path, n/2) // want:atomicwrite
}
