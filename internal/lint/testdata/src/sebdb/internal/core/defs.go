package core

import (
	"errors"

	"sebdb/internal/network"
)

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

// chainDefs models the tables and contracts the chain defines.
type chainDefs struct {
	raw []byte
}

// installDefs installs resolved definitions (trusttaint sink).
func (e *Engine) installDefs(d chainDefs) {
	e.tables = map[string]bool{string(d.raw): true}
}

// InstallPeerDefs installs the definitions a peer sent as they came off
// the wire, skipping the block validation that resolves them on the
// real path.
func (e *Engine) InstallPeerDefs(cli *network.Client) error {
	raw, err := cli.Call(9, nil)
	if err != nil {
		return err
	}
	e.installDefs(chainDefs{raw: raw}) // want:trusttaint
	return nil
}
