package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"sebdb/internal/auth"
	"sebdb/internal/faultfs"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/types"
)

// Index definitions are node-local configuration, not chain state, but
// an operator expects them to survive restarts. The engine records every
// user index in a small JSON file in the data directory as a full
// definition — family, key, and for a continuous index the histogram
// §IV-B fixes when the index is created — and Open registers each one
// before replaying the chain, so one pass over the blocks feeds every
// index. The indexes' contents are derived state, rebuilt from the
// chain; their histograms are not, and come only from this file, a
// checkpoint, or — on a bootstrapping node — the source's definitions
// (ParseIndexDefs, AdoptIndexDefs).

const indexMetaFile = "indexes.json"

// Index families as indexes.json names them.
const (
	familyLayered = "layered"
	familyAuth    = "auth"
)

type indexMeta struct {
	// Indexes lists every user index's definition: the layered indexes,
	// then the ALIs, each in key order.
	Indexes []indexDef `json:"indexes"`
	// Layered and Auth are the names-only form of a file written before
	// definitions carried their histogram: "table.col" keys ("" table = a
	// system column). Open creates those indexes after the replay, as
	// CreateIndex would, and rewrites the file with their definitions.
	Layered []string `json:"layered,omitempty"`
	Auth    []string `json:"auth,omitempty"`
}

// indexDef is one user index's persisted definition.
type indexDef struct {
	Family     string `json:"family"`
	Key        string `json:"key"`
	Continuous bool   `json:"continuous"`
	// Bounds are a continuous index's inner histogram boundaries,
	// ascending, each as its IEEE-754 bit pattern.
	Bounds []floatBits `json:"bounds,omitempty"`
}

// floatBits persists a float64 as the 16 hex digits of its bit pattern:
// encoding/json refuses NaN and ±Inf, and a decimal rendering need not
// keep −0 or a NaN payload, while every route that rebuilds an index
// must bucket values exactly as its creator did.
type floatBits uint64

func (b floatBits) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`"%016x"`, uint64(b))), nil
}

func (b *floatBits) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || len(s) != 16 {
		return fmt.Errorf("histogram bound %q is not 16 hex digits", s)
	}
	*b = floatBits(v)
	return nil
}

func defOf(family, key string, hist *layered.Histogram) indexDef {
	d := indexDef{Family: family, Key: key, Continuous: hist != nil}
	if hist != nil {
		for _, f := range hist.Bounds() {
			d.Bounds = append(d.Bounds, floatBits(math.Float64bits(f)))
		}
	}
	return d
}

// histogram rebuilds a continuous definition's first level; nil for a
// discrete one.
func (d *indexDef) histogram() *layered.Histogram {
	if !d.Continuous {
		return nil
	}
	bounds := make([]float64, len(d.Bounds))
	for i, b := range d.Bounds {
		bounds[i] = math.Float64frombits(uint64(b))
	}
	return layered.FromBounds(bounds)
}

func (e *Engine) indexMetaPath() string {
	return filepath.Join(e.cfg.Dir, indexMetaFile)
}

// readIndexMeta reads the persisted index definitions; a missing file
// means none.
func (e *Engine) readIndexMeta() (*indexMeta, error) {
	var m indexMeta
	raw, err := e.cfg.FS.ReadFile(e.indexMetaPath())
	if errors.Is(err, os.ErrNotExist) {
		return &m, nil
	}
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err != nil {
		return nil, fmt.Errorf("core: index meta: %w", err)
	}
	return &m, nil
}

// registerDefs installs, before the replay, every definition the
// restored state lacks — all of them after a full-replay start — and
// feeds each the blocks [0, base) the checkpoint already covered (none
// on a full replay). The replay then feeds them the rest along with
// every other index. It runs during Open, before the engine is shared.
func (e *Engine) registerDefs(defs []indexDef, base uint64) error {
	for i := range defs {
		d := &defs[i]
		hist := d.histogram()
		var feed blockFeed
		switch d.Family {
		case familyLayered:
			if _, ok := e.lidx[d.Key]; ok {
				continue
			}
			idx := newLayered(splitKey(d.Key).col, hist)
			e.lidx, feed = withEntry(e.lidx, d.Key, idx), e.layeredFeed(d.Key, idx)
		case familyAuth:
			if _, ok := e.alis[d.Key]; ok {
				continue
			}
			ali := newALI(splitKey(d.Key).col, hist)
			e.alis, feed = withEntry(e.alis, d.Key, ali), e.aliFeed(d.Key, ali)
		default:
			return fmt.Errorf("core: index meta: %q has unknown family %q", d.Key, d.Family)
		}
		e.idxEpoch++
		if err := e.backfill(feed, e.defs.tables, 0, base); err != nil {
			return fmt.Errorf("core: backfilling %s index %q: %w", d.Family, d.Key, err)
		}
	}
	return nil
}

// createLegacy creates the indexes a names-only file lists, sampling and
// backfilling each as CreateIndex does, then rewrites the file with
// their definitions, so the next Open is one pass.
func (e *Engine) createLegacy(m *indexMeta) error {
	if len(m.Layered) == 0 && len(m.Auth) == 0 {
		return nil
	}
	for _, key := range m.Layered {
		spec := splitKey(key)
		if _, err := e.createLayered(spec.table, spec.col); err != nil {
			return fmt.Errorf("core: replaying layered index %q: %w", key, err)
		}
	}
	for _, key := range m.Auth {
		spec := splitKey(key)
		if _, err := e.createAuth(spec.table, spec.col); err != nil {
			return fmt.Errorf("core: replaying auth index %q: %w", key, err)
		}
	}
	return e.saveIndexMeta()
}

// saveIndexMeta writes every user index's definition through the
// engine's filesystem: a tmp file, written and fsynced, renamed over the
// old one, so a crash leaves the old definitions or the new ones, never
// a torn file. Callers hold no lock; metaSem orders concurrent saves, so
// the last rename carries the newest set.
func (e *Engine) saveIndexMeta() error {
	e.metaSem <- struct{}{}
	defer func() { <-e.metaSem }()
	raw, err := e.IndexDefs()
	if err != nil {
		return err
	}
	if err := faultfs.WriteAtomic(e.cfg.FS, e.indexMetaPath(), raw); err != nil {
		return fmt.Errorf("core: index meta: %w", err)
	}
	return nil
}

// IndexDefs renders every user index's definition as indexes.json
// holds it — the bytes a node serves to a peer that bootstraps from it.
func (e *Engine) IndexDefs() ([]byte, error) {
	m := indexMeta{Indexes: []indexDef{}}
	e.mu.RLock()
	for _, key := range sortedKeys(e.lidx) {
		if key == ".senid" || key == ".tname" {
			continue // the global system indexes always exist
		}
		m.Indexes = append(m.Indexes, defOf(familyLayered, key, e.lidx[key].Histogram()))
	}
	for _, key := range sortedKeys(e.alis) {
		m.Indexes = append(m.Indexes, defOf(familyAuth, key, e.alis[key].Histogram()))
	}
	e.mu.RUnlock()
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// maxPeerBounds caps the histogram bounds one adopted definition may
// carry. Bounds become this node's first level: every block keeps a
// bitmap over the buckets and every range probe builds one, so their
// count multiplies into per-block memory and per-query work, and a peer
// must not choose it freely. An equal-depth histogram has at most
// Config.HistogramDepth-1 bounds (99 by default); 4,096 leaves room for
// any depth an operator plausibly sets, and Open refuses a deeper one.
const maxPeerBounds = 4096

// PeerIndexDefs are index definitions from another node that passed
// ParseIndexDefs against this node's tables; AdoptIndexDefs registers
// them.
type PeerIndexDefs struct{ defs []indexDef }

// ParseIndexDefs is the validating parse of a peer's index definitions
// (the bytes IndexDefs renders): malformed JSON, a names-only file and
// whatever checkIndexDefs refuses are refused. It changes nothing.
func (e *Engine) ParseIndexDefs(raw []byte) (PeerIndexDefs, error) {
	var m indexMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return PeerIndexDefs{}, fmt.Errorf("core: peer index definitions: %w", err)
	}
	if len(m.Layered) != 0 || len(m.Auth) != 0 {
		return PeerIndexDefs{}, errors.New("core: peer index definitions carry no histograms")
	}
	if err := e.CurrentView().checkIndexDefs(m.Indexes); err != nil {
		return PeerIndexDefs{}, fmt.Errorf("core: peer %w", err)
	}
	return PeerIndexDefs{defs: m.Indexes}, nil
}

// checkIndexDefs is the one check for index definitions, a peer's
// (ParseIndexDefs) and indexes.json's (Open, after the replay) alike. It
// holds them to the view's tables, and refuses an unknown family, a key
// whose table or column the view lacks, a continuous flag the column's
// kind does not allow, bounds that are not strictly ascending (a NaN can
// only be a sole bound, as in layered.NewEqualDepth), more than
// maxPeerBounds bounds, and a key listed twice in one family.
func (v *View) checkIndexDefs(defs []indexDef) error {
	seen := make(map[[2]string]bool, len(defs))
	for i := range defs {
		d := &defs[i]
		if err := v.checkIndexDef(d); err != nil {
			return fmt.Errorf("%s index %q: %w", d.Family, d.Key, err)
		}
		if seen[[2]string{d.Family, d.Key}] {
			return fmt.Errorf("%s index %q listed twice", d.Family, d.Key)
		}
		seen[[2]string{d.Family, d.Key}] = true
	}
	return nil
}

// checkIndexDef holds one definition to the view's tables.
func (v *View) checkIndexDef(d *indexDef) error {
	if d.Family != familyLayered && d.Family != familyAuth {
		return errors.New("unknown family")
	}
	spec := splitKey(d.Key)
	var kind types.Kind
	switch {
	case spec.table == "" && d.Family == familyAuth:
		// A system-column ALI is always discrete (createAuth).
		if _, err := types.SystemColumnKind(spec.col); err != nil {
			return err
		}
		kind = types.KindString
	default:
		tbl, err := v.Table(spec.table)
		if err != nil {
			return err
		}
		if tbl.Name != spec.table {
			return fmt.Errorf("table is named %q here", tbl.Name)
		}
		if kind, _, err = tbl.ColumnKind(spec.col); err != nil {
			return err
		}
	}
	if d.Continuous != continuousKind(kind) {
		return fmt.Errorf("continuous=%v does not fit a %v column", d.Continuous, kind)
	}
	if !d.Continuous && len(d.Bounds) != 0 {
		return errors.New("a discrete index carries histogram bounds")
	}
	if len(d.Bounds) > maxPeerBounds {
		return fmt.Errorf("%d histogram bounds, at most %d", len(d.Bounds), maxPeerBounds)
	}
	for i := 1; i < len(d.Bounds); i++ {
		if !(math.Float64frombits(uint64(d.Bounds[i])) > math.Float64frombits(uint64(d.Bounds[i-1]))) {
			return fmt.Errorf("histogram bound %d does not exceed bound %d", i, i-1)
		}
	}
	return nil
}

// AdoptIndexDefs registers every parsed peer definition this node
// lacks — histogram bounds included, bit for bit, so both nodes bucket
// the first level alike and serve equal ALI digests — backfills each
// over the local chain through the same creation protocol CreateIndex
// uses, and persists the definitions.
func (e *Engine) AdoptIndexDefs(p PeerIndexDefs) error {
	created := false
	for i := range p.defs {
		ok, err := e.adoptDef(&p.defs[i])
		if err != nil {
			return fmt.Errorf("core: adopting %s index %q: %w", p.defs[i].Family, p.defs[i].Key, err)
		}
		created = created || ok
	}
	return e.persistIfCreated(created, nil)
}

// adoptDef is AdoptIndexDefs for one definition, without the persist.
func (e *Engine) adoptDef(d *indexDef) (bool, error) {
	col, hist := splitKey(d.Key).col, d.histogram()
	if d.Family == familyLayered {
		return createIndex(e, &e.lidx, d.Key, e.layeredFeed,
			func() (*layered.Index, error) { return newLayered(col, hist), nil })
	}
	return createIndex(e, &e.alis, d.Key, e.aliFeed,
		func() (*auth.ALI, error) { return newALI(col, hist), nil })
}

// newLayered and newALI build an empty index of either family over attr:
// continuous with hist's buckets, discrete when hist is nil.
func newLayered(attr string, hist *layered.Histogram) *layered.Index {
	if hist != nil {
		return layered.NewContinuous(attr, hist)
	}
	return layered.NewDiscrete(attr)
}

func newALI(attr string, hist *layered.Histogram) *auth.ALI {
	if hist != nil {
		return auth.NewContinuous(attr, hist, mbtree.DefaultFanout)
	}
	return auth.NewDiscrete(attr, mbtree.DefaultFanout)
}
