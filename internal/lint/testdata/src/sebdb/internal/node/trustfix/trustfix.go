// Package trustfix seeds trusttaint violations: it reconstructs the
// removed Dir.Install path, where a checkpoint fetched from a peer was
// decoded and installed into local state with no verification. The
// unregistered handler models trusted input and stays clean.
package trustfix

import (
	"sebdb/internal/network"
	"sebdb/internal/snapshot"
)

// Syncer models the catch-up client side.
type Syncer struct {
	cli *network.Client
	dir *snapshot.Dir
}

// InstallUnverified is the removed bug: peer bytes flow through Decode
// straight into the checkpoint store, bypassing every sanitizer.
func (s *Syncer) InstallUnverified() error {
	payload, err := s.cli.Call(7, nil)
	if err != nil {
		return err
	}
	ck, err := snapshot.Decode(payload)
	if err != nil {
		return err
	}
	return s.dir.Write(ck) // want:trusttaint
}

// Gate models the serving side: a handler registered with the network
// server receives a peer-controlled payload as its first parameter.
type Gate struct {
	dir *snapshot.Dir
}

// Register wires the handler; trusttaint roots concrete taint at the
// registration.
func (g *Gate) Register(srv *network.Server) {
	srv.Handle(8, g.handleChunk)
}

// handleChunk installs whatever the peer sent — the registration-rooted
// flavour of the same bug.
func (g *Gate) handleChunk(payload []byte) ([]byte, error) {
	ck, err := snapshot.Decode(payload)
	if err != nil {
		return nil, err
	}
	return nil, g.dir.Write(ck) // want:trusttaint
}

// handleLocal is never registered as a wire handler, so its parameter
// is trusted and the same body stays clean.
func (g *Gate) handleLocal(payload []byte) ([]byte, error) {
	ck, err := snapshot.Decode(payload)
	if err != nil {
		return nil, err
	}
	return nil, g.dir.Write(ck)
}
