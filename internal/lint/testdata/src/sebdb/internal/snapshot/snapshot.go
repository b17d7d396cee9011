// Package snapshot stubs the real snapshot package's surface so the
// interprocedural fixtures resolve the same sink/sanitizer specs
// (sebdb/internal/snapshot.*) as the production tree. Matching is by
// package path, receiver and name, so the bodies are deliberately inert.
package snapshot

import "errors"

// Checkpoint is the persisted state image.
type Checkpoint struct {
	Height uint64
	Raw    []byte
}

// Encode serialises the checkpoint (lockio sink: checkpoint encode).
func (c *Checkpoint) Encode() []byte { return c.Raw }

// Decode parses a checkpoint from wire bytes; the result derives from
// the input, so taint flows through it.
func Decode(b []byte) (*Checkpoint, error) {
	if len(b) == 0 {
		return nil, errors.New("snapshot: empty payload")
	}
	return &Checkpoint{Height: uint64(len(b)), Raw: b}, nil
}

// Dir persists checkpoints (lockio + trusttaint sink: Dir.Write).
type Dir struct{}

// Write persists one checkpoint.
func (d *Dir) Write(c *Checkpoint) error {
	if c == nil {
		return errors.New("snapshot: nil checkpoint")
	}
	return nil
}

