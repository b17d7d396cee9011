package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"sebdb/internal/faultfs"
	"sebdb/internal/types"
)

// DirName is the checkpoint directory created inside a data directory.
const DirName = "snapshots"

const manifestName = "MANIFEST"

// Manifest pins a prefix of the checkpoint log to a chain position.
type Manifest struct {
	// Height and Anchor are the pin of the last frame in the prefix.
	Height uint64
	Anchor types.Hash
	// File is the log file name within the directory.
	File string
	// Size and CRC describe the pinned prefix of File — every frame up
	// to Height, headers and trailers included: where the next frame is
	// appended.
	Size uint64
	CRC  uint32
}

func (m *Manifest) encode() []byte {
	e := types.NewEncoder(96)
	e.Uint32(manifestMagic)
	e.Uint32(version)
	e.Uint64(m.Height)
	e.Bytes32(m.Anchor)
	e.Str(m.File)
	e.Uint64(m.Size)
	e.Uint32(m.CRC)
	e.Uint32(crc32.ChecksumIEEE(e.Bytes()))
	return e.Bytes()
}

func decodeManifest(buf []byte) (*Manifest, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short manifest", ErrCorrupt)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: manifest CRC mismatch", ErrCorrupt)
	}
	d := types.NewDecoder(body)
	magic, err := d.Uint32()
	if err != nil || magic != manifestMagic {
		return nil, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	ver, err := d.Uint32()
	if err != nil || ver != version {
		return nil, fmt.Errorf("%w: unsupported manifest version %d", ErrCorrupt, ver)
	}
	m := &Manifest{}
	if m.Height, err = d.Uint64(); err != nil {
		return nil, corrupt(err)
	}
	if m.Anchor, err = d.Bytes32(); err != nil {
		return nil, corrupt(err)
	}
	if m.File, err = d.Str(); err != nil {
		return nil, corrupt(err)
	}
	if m.File != filepath.Base(m.File) || m.File == "" {
		return nil, fmt.Errorf("%w: manifest file name %q escapes the directory", ErrCorrupt, m.File)
	}
	if m.Size, err = d.Uint64(); err != nil {
		return nil, corrupt(err)
	}
	if m.CRC, err = d.Uint32(); err != nil {
		return nil, corrupt(err)
	}
	return m, nil
}

// Dir manages the checkpoint directory of one data directory. All I/O
// goes through the injected filesystem so the faultfs crash matrix
// covers every write, rename and load step. Load and Write must not run
// concurrently with each other (the engine holds its checkpoint token
// across both); Manifest is safe beside them.
type Dir struct {
	fs   faultfs.FS
	path string

	// pin is the log prefix the next window continues — what Load
	// folded or the last Write pinned — and keys the encoded index keys
	// of that log generation. A nil pin means the log's state is unknown
	// (nothing loaded, a write failed, the engine discarded what Load
	// returned): the next Write must carry the whole state and starts a
	// new generation.
	pin  *Manifest
	keys []byte
}

// NewDir returns a Dir over <dataDir>/snapshots using fs (nil means
// the real filesystem). No I/O happens until Write or Load.
func NewDir(fs faultfs.FS, dataDir string) *Dir {
	if fs == nil {
		fs = faultfs.OS()
	}
	return &Dir{fs: fs, path: filepath.Join(dataDir, DirName)}
}

// Path returns the checkpoint directory path.
func (d *Dir) Path() string { return d.path }

// Height returns the block height the log is known to pin — where the
// next window must start — or 0 when the next Write has to be whole.
func (d *Dir) Height() uint64 {
	if d.pin == nil {
		return 0
	}
	return d.pin.Height
}

// Forget drops the pin: the caller found what Load returned unusable
// (it disagrees with the chain on disk), so nothing may be appended to
// that log.
func (d *Dir) Forget() { d.pin = nil }

func logName(gen uint64) string { return fmt.Sprintf("index-%06d.log", gen) }

// Write persists one checkpoint frame and repoints the manifest at it.
// A window that continues the pinned log (c.Lo == Height()) is appended
// to it: the cost is the window's, not the chain's. A whole-state
// checkpoint (c.Lo == 0) starts a new log generation by tmp+rename and
// sweeps whatever the directory held before. After an error the pin is
// dropped — a crash-torn tail is harmless, Load ignores it — so the
// next checkpoint starts over with a new generation.
func (d *Dir) Write(c *Checkpoint) error {
	frame := c.Encode()
	var m *Manifest
	var err error
	if c.Lo == 0 {
		m, err = d.newGeneration(c, frame)
	} else {
		m, err = d.appendFrame(c, frame)
	}
	if err == nil {
		err = d.writeAtomic(manifestName, m.encode())
	}
	if err != nil {
		d.pin = nil
		return err
	}
	d.pin, d.keys = m, indexKeys(c)
	mWrites.Inc()
	mWriteBytes.Add(uint64(len(frame)))
	if c.Lo == 0 {
		return d.sweep(m.File)
	}
	return nil
}

// appendFrame appends one window to the pinned log and fsyncs it,
// returning the manifest that would pin the longer prefix. Bytes past
// the pinned length are the tail of an append whose manifest never
// landed; they are cut off first.
func (d *Dir) appendFrame(c *Checkpoint, frame []byte) (*Manifest, error) {
	pin := d.pin
	if pin == nil || c.Lo != pin.Height || c.Height <= c.Lo ||
		c.Prev != pin.Anchor || !bytes.Equal(indexKeys(c), d.keys) {
		return nil, fmt.Errorf("snapshot: window [%d,%d) does not continue the log pinned at %d", c.Lo, c.Height, d.Height())
	}
	logPath := filepath.Join(d.path, pin.File)
	st, err := d.fs.Stat(logPath)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if uint64(st.Size()) < pin.Size {
		return nil, fmt.Errorf("snapshot: %s holds %d bytes, manifest pins %d", logPath, st.Size(), pin.Size)
	}
	if uint64(st.Size()) > pin.Size {
		if err := d.fs.Truncate(logPath, int64(pin.Size)); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	f, err := d.fs.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if err := writeSyncClose(f, frame); err != nil {
		return nil, fmt.Errorf("snapshot: appending to %s: %w", logPath, err)
	}
	return &Manifest{
		Height: c.Height, Anchor: c.Anchor, File: pin.File,
		Size: pin.Size + uint64(len(frame)),
		CRC:  crc32.Update(pin.CRC, crc32.IEEETable, frame),
	}, nil
}

// newGeneration writes a log holding the one whole-state frame under
// the generation number after the one the manifest on disk names — the
// pinned log stays untouched until the manifest moves off it.
func (d *Dir) newGeneration(c *Checkpoint, frame []byte) (*Manifest, error) {
	if err := d.fs.MkdirAll(d.path, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	gen := uint64(1)
	if prev, err := d.readManifest(); err == nil {
		var n uint64
		if _, err := fmt.Sscanf(prev.File, "index-%d.log", &n); err == nil {
			gen = n + 1
		}
	}
	name := logName(gen)
	if err := d.writeAtomic(name, frame); err != nil {
		return nil, err
	}
	return &Manifest{Height: c.Height, Anchor: c.Anchor, File: name,
		Size: uint64(len(frame)), CRC: crc32.ChecksumIEEE(frame)}, nil
}

// writeAtomic writes name via a .tmp sibling, syncs, and renames into
// place. Together with appendFrame's append + Sync ahead of the
// manifest's rename it is the only write protocol allowed in this
// package (enforced by the sebdb-vet atomicwrite analyzer).
func (d *Dir) writeAtomic(name string, blob []byte) error {
	if err := faultfs.WriteAtomic(d.fs, filepath.Join(d.path, name), blob); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

func writeSyncClose(f faultfs.File, blob []byte) error {
	_, err := f.Write(blob)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sweep removes everything but the manifest and the log it now pins:
// the previous generation, stale temp files, a retired format's files.
// The checkpoint is already durable, so callers may treat the error as
// advisory.
func (d *Dir) sweep(keep string) error {
	entries, err := d.fs.ReadDir(d.path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	var firstErr error
	for _, e := range entries {
		if e.Name() == manifestName || e.Name() == keep {
			continue
		}
		if err := d.fs.Remove(filepath.Join(d.path, e.Name())); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("snapshot: sweep: %w", err)
		}
	}
	return firstErr
}

// Load folds the pinned log back into the whole-state checkpoint at its
// height, every frame CRC-verified and checked to continue the one
// before. The first bad frame ends the usable prefix: Load returns the
// state at the last good frame's height and recovery replays from
// there. A missing manifest, or a log without one usable frame, returns
// (nil, nil) — the caller falls back to full replay; either way the
// outcome is visible on the sebdb_snapshot_loads_total{result=...}
// counters. The next Write continues the prefix Load returned.
func (d *Dir) Load() (*Checkpoint, error) {
	d.pin = nil
	m, err := d.Manifest()
	if err != nil || m == nil {
		return nil, err
	}
	blob, err := d.fs.ReadFile(filepath.Join(d.path, m.File))
	if err != nil {
		mLoadCorrupt.Inc()
		return nil, nil
	}
	if uint64(len(blob)) > m.Size {
		blob = blob[:m.Size] // the unpinned tail of an append that never completed
	}
	c, used, derr := decodeLog(blob)
	switch {
	case c == nil:
		mLoadCorrupt.Inc()
		return nil, nil
	case derr != nil || uint64(used) != m.Size:
		mLoadTruncated.Inc()
		m = &Manifest{Height: c.Height, Anchor: c.Anchor, File: m.File,
			Size: uint64(used), CRC: crc32.ChecksumIEEE(blob[:used])}
	case c.Height != m.Height || c.Anchor != m.Anchor:
		mLoadCorrupt.Inc()
		return nil, nil
	default:
		mLoadOK.Inc()
	}
	d.pin, d.keys = m, indexKeys(c)
	mLoadBytes.Add(uint64(used))
	return c, nil
}

// readManifest reads and decodes the manifest on disk.
func (d *Dir) readManifest() (*Manifest, error) {
	buf, err := d.fs.ReadFile(filepath.Join(d.path, manifestName))
	if err != nil {
		return nil, err
	}
	return decodeManifest(buf)
}

// Manifest returns the decoded manifest alone, without touching the
// (much larger) log. A missing or corrupt manifest returns (nil, nil).
func (d *Dir) Manifest() (*Manifest, error) {
	m, err := d.readManifest()
	switch {
	case err == nil:
		return m, nil
	case os.IsNotExist(err):
		mLoadMiss.Inc()
		return nil, nil
	case errors.Is(err, ErrCorrupt):
		mLoadCorrupt.Inc()
		return nil, nil // a corrupt manifest degrades to full replay by design
	}
	return nil, fmt.Errorf("snapshot: %w", err)
}
