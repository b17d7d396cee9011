package core

import "errors"

// PeerIndexDefs models index definitions received from a peer.
type PeerIndexDefs struct {
	Raw []byte
}

// ParseIndexDefs is the validating parse of a peer's definitions
// (trusttaint sanitizer).
func (e *Engine) ParseIndexDefs(raw []byte) (PeerIndexDefs, error) {
	if len(raw) == 0 {
		return PeerIndexDefs{}, errors.New("core: empty definitions")
	}
	return PeerIndexDefs{Raw: raw}, nil
}

// AdoptIndexDefs registers definitions (trusttaint sink).
func (e *Engine) AdoptIndexDefs(d PeerIndexDefs) error {
	if d.Raw == nil {
		return errors.New("core: no definitions")
	}
	return nil
}
