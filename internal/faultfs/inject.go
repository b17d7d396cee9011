package faultfs

import (
	"errors"
	"os"
	"sync"
)

// ErrSync is the injected Sync failure.
var ErrSync = errors.New("faultfs: injected sync error")

// Options configures an Injector.
type Options struct {
	// OpsBeforeCrash is the number of mutating operations (writes,
	// syncs, renames, removes, truncates, file creations, mkdirs) that
	// succeed before the simulated power loss. Negative means never
	// crash. When the crashing operation is a write, a torn prefix of
	// the buffer reaches disk first — modelling a partial sector flush.
	OpsBeforeCrash int
	// SyncErrors makes every Sync fail with ErrSync without crashing,
	// modelling a filesystem that cannot honour durability requests.
	SyncErrors bool
	// ShortReads caps every sequential Read at ShortReads bytes per
	// call (0 disables), exercising io.ReadFull-style callers.
	ShortReads int
	// MmapErrors makes every Mmap fail with ErrMmap without crashing,
	// exercising the storage tier's transparent pread fallback.
	MmapErrors bool
}

// ErrMmap is the injected Mmap failure.
var ErrMmap = errors.New("faultfs: injected mmap error")

// ErrRead is the injected read failure (FailReads).
var ErrRead = errors.New("faultfs: injected read error")

// Injector is an FS wrapper that injects faults into the real
// filesystem. After the simulated crash fires, every operation —
// including reads — returns ErrCrashed; the test then "reboots" by
// reopening the same directory through a clean FS.
type Injector struct {
	mu   sync.Mutex
	opts Options
	// ops counts mutating operations observed so far; syncs counts just
	// the Sync calls among them.
	ops       int
	syncs     int
	crashed   bool
	failReads bool
}

// New returns a fault injector over the real filesystem.
func New(opts Options) *Injector {
	return &Injector{opts: opts}
}

// Crashed reports whether the simulated crash has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Mutations returns the number of mutating operations observed, so a
// fault-free rehearsal run can size the crash matrix: crashing at op
// k for every k in [0, Mutations()) covers all crash-points.
func (in *Injector) Mutations() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Syncs returns the number of Sync calls observed. Group-fsync tests
// use it to assert a batch of appends cost one fsync, not one per
// block.
func (in *Injector) Syncs() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.syncs
}

// down reports ErrCrashed once the crash fired.
func (in *Injector) down() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return ErrCrashed
	}
	return nil
}

// FailReads makes every read of a file — opened before or after — fail
// with ErrRead while on, without crashing: a disk that stops returning
// data a running node needs.
func (in *Injector) FailReads(on bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failReads = on
}

// readable reports ErrCrashed once the crash fired and ErrRead while
// reads fail.
func (in *Injector) readable() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	switch {
	case in.crashed:
		return ErrCrashed
	case in.failReads:
		return ErrRead
	}
	return nil
}

// mutate accounts for one mutating operation and reports whether it is
// the crashing one. The operation itself must not be performed when
// crash is true (except for a write's torn prefix, which the caller
// handles).
func (in *Injector) mutate() (crash bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return false, ErrCrashed
	}
	if in.opts.OpsBeforeCrash >= 0 && in.ops == in.opts.OpsBeforeCrash {
		in.crashed = true
		in.ops++
		return true, nil
	}
	in.ops++
	return false, nil
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	crash, err := in.mutate()
	if err != nil {
		return err
	}
	if crash {
		return ErrCrashed
	}
	return os.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(path string) ([]os.DirEntry, error) {
	if err := in.down(); err != nil {
		return nil, err
	}
	return os.ReadDir(path)
}

func (in *Injector) ReadFile(path string) ([]byte, error) {
	if err := in.down(); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	crash, err := in.mutate()
	if err != nil {
		return err
	}
	if crash {
		return ErrCrashed
	}
	return os.Rename(oldpath, newpath)
}

func (in *Injector) Remove(path string) error {
	crash, err := in.mutate()
	if err != nil {
		return err
	}
	if crash {
		return ErrCrashed
	}
	return os.Remove(path)
}

func (in *Injector) Truncate(path string, size int64) error {
	crash, err := in.mutate()
	if err != nil {
		return err
	}
	if crash {
		return ErrCrashed
	}
	return os.Truncate(path, size)
}

func (in *Injector) Stat(path string) (os.FileInfo, error) {
	if err := in.down(); err != nil {
		return nil, err
	}
	return os.Stat(path)
}

// Mmap maps a file read-only through the real filesystem. Mapping is
// not a mutation (nothing reaches disk), so it only honours the crash
// state and the MmapErrors knob; bytes read through a mapping taken
// before the crash stay readable, like any other pre-crash read handle.
func (in *Injector) Mmap(path string) (Mapping, error) {
	in.mu.Lock()
	crashed, mmapErr := in.crashed, in.opts.MmapErrors
	in.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	if mmapErr {
		return nil, ErrMmap
	}
	return mmapFile(path)
}

func (in *Injector) Open(path string) (File, error) {
	if err := in.down(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &injectFile{in: in, f: f}, nil
}

func (in *Injector) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	// Creating or truncating a file mutates the directory; a pure
	// read-write open of an existing file does not.
	if flag&(os.O_CREATE|os.O_TRUNC) != 0 {
		crash, err := in.mutate()
		if err != nil {
			return nil, err
		}
		if crash {
			return nil, ErrCrashed
		}
	} else if err := in.down(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{in: in, f: f}, nil
}

// injectFile wraps an *os.File with the injector's fault model.
type injectFile struct {
	in *Injector
	f  *os.File
}

func (w *injectFile) Read(p []byte) (int, error) {
	if err := w.in.readable(); err != nil {
		return 0, err
	}
	if n := w.in.opts.ShortReads; n > 0 && len(p) > n {
		p = p[:n]
	}
	return w.f.Read(p)
}

func (w *injectFile) ReadAt(p []byte, off int64) (int, error) {
	if err := w.in.readable(); err != nil {
		return 0, err
	}
	return w.f.ReadAt(p, off)
}

func (w *injectFile) Write(p []byte) (int, error) {
	crash, err := w.in.mutate()
	if err != nil {
		return 0, err
	}
	if crash {
		// Torn write: a prefix of the buffer reaches disk before the
		// power fails.
		if n := len(p) / 2; n > 0 {
			w.f.Write(p[:n]) //sebdb:ignore-err simulating power loss mid-write; bytes beyond the tear are lost either way
		}
		return 0, ErrCrashed
	}
	return w.f.Write(p)
}

func (w *injectFile) Sync() error {
	if w.in.opts.SyncErrors {
		return ErrSync
	}
	crash, err := w.in.mutate()
	if err != nil {
		return err
	}
	if crash {
		return ErrCrashed
	}
	w.in.mu.Lock()
	w.in.syncs++
	w.in.mu.Unlock()
	return w.f.Sync()
}

func (w *injectFile) Close() error {
	// Close is allowed after a crash so deferred cleanup does not leak
	// descriptors; the data's fate was already decided.
	return w.f.Close()
}
