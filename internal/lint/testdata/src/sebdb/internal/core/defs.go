package core

import "sebdb/internal/network"

// chainDefs models the tables, contracts and index definitions the chain
// defines.
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
