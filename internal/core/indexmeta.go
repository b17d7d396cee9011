package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"

	"sebdb/internal/auth"
	"sebdb/internal/faultfs"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/schema"
	"sebdb/internal/types"
)

// Index definitions are chain state: an _index record holds a user
// index's family, key, and for a continuous index the histogram §IV-B
// fixes at creation, and every node builds the index in the install
// stage of the block that carries the record, so all bucket alike.
// indexes.json caches the definitions so that a full-replay Open feeds
// every index in its one pass; the chain decides what stays.

// indexTable is the reserved transaction type that carries index
// definitions on chain.
const indexTable = "_index"

const indexMetaFile = "indexes.json"

// Index families as definitions name them.
const (
	familyLayered = "layered"
	familyAuth    = "auth"
)

// indexDef is one user index's definition. Its encoding (encode) is the
// payload of its _index record and its entry in indexes.json alike.
type indexDef struct {
	Family     string `json:"family"`
	Key        string `json:"key"`
	Continuous bool   `json:"continuous"`
	// Bounds are a continuous index's inner histogram boundaries,
	// ascending, each as its IEEE-754 bit pattern: a JSON number cannot
	// carry NaN or ±Inf, and a decimal rendering need not keep −0, while
	// every node must bucket values exactly as the proposer did.
	Bounds []uint64 `json:"bounds,omitempty"`
}

func defOf(family, key string, hist *layered.Histogram) *indexDef {
	d := &indexDef{Family: family, Key: key, Continuous: hist != nil}
	if hist != nil {
		for _, f := range hist.Bounds() {
			d.Bounds = append(d.Bounds, math.Float64bits(f))
		}
	}
	return d
}

// id names the definition: a layered index and an ALI may share a key.
func (d *indexDef) id() string { return indexID(d.Family, d.Key) }

// indexID is the id of family's index under key.
func indexID(family, key string) string { return family + ":" + key }

// Equal reports whether d and o define the same index, bit for bit.
func (d *indexDef) Equal(o *indexDef) bool {
	return d.Family == o.Family && d.Key == o.Key && d.Continuous == o.Continuous && slices.Equal(d.Bounds, o.Bounds)
}

// encode renders the definition's one byte form.
func (d *indexDef) encode() ([]byte, error) { return json.Marshal(d) }

// parseIndexDef decodes a definition from its encoding, which must be
// canonical — exactly the bytes encode renders — so one definition has
// one byte form on every node.
func parseIndexDef(raw []byte) (*indexDef, error) {
	var d indexDef
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("index definition: %w", err)
	}
	if enc, err := d.encode(); err != nil || !bytes.Equal(enc, raw) {
		return nil, errors.New("index definition: not in canonical form")
	}
	return &d, nil
}

// decodeIndexRecord decodes an _index transaction's payload — one
// string, the definition's encoding — and checks the definition against
// tables.
func decodeIndexRecord(args []types.Value, tables map[string]*schema.Table) (*indexDef, error) {
	if len(args) != 1 || args[0].Kind != types.KindString {
		return nil, fmt.Errorf("index: malformed record payload of %d values", len(args))
	}
	d, err := parseIndexDef([]byte(args[0].S))
	if err == nil {
		if err = d.check(tables); err != nil {
			err = fmt.Errorf("index: %s index %q: %w", d.Family, d.Key, err)
		}
	}
	return d, err
}

// histogram rebuilds a continuous definition's first level; nil for a
// discrete one, or for none (a built-in index).
func (d *indexDef) histogram() *layered.Histogram {
	if d == nil || !d.Continuous {
		return nil
	}
	bounds := make([]float64, len(d.Bounds))
	for i, b := range d.Bounds {
		bounds[i] = math.Float64frombits(b)
	}
	return layered.FromBounds(bounds)
}

// maxIndexBounds caps the histogram bounds one definition may carry.
// Bounds become every node's first level: every block keeps a bitmap
// over the buckets and every range probe builds one, so their count
// multiplies into per-block memory and per-query work, and a proposer
// must not choose it freely. An equal-depth histogram has at most
// Config.HistogramDepth-1 bounds (99 by default); 4,096 leaves room for
// any depth an operator plausibly sets, and Open refuses a deeper one.
const maxIndexBounds = 4096

// errNoTable is check's verdict on a definition whose table tables lack.
var errNoTable = errors.New("no such table")

// check is the one check for an index definition, held to the tables
// defined where it stands on the chain: it refuses an unknown family, a
// discrete index with bounds, more than maxIndexBounds bounds, a NaN or
// a bound not above the one before, a key whose table (errNoTable) or
// column tables lack, and a continuous flag the column's kind forbids.
func (d *indexDef) check(tables map[string]*schema.Table) error {
	if d.Family != familyLayered && d.Family != familyAuth {
		return errors.New("unknown family")
	}
	if !d.Continuous && len(d.Bounds) != 0 {
		return errors.New("a discrete index carries histogram bounds")
	}
	if len(d.Bounds) > maxIndexBounds {
		return fmt.Errorf("%d histogram bounds, at most %d", len(d.Bounds), maxIndexBounds)
	}
	for i, b := range d.Bounds {
		f := math.Float64frombits(b)
		if math.IsNaN(f) {
			return fmt.Errorf("histogram bound %d is NaN", i)
		}
		if i > 0 && !(f > math.Float64frombits(d.Bounds[i-1])) {
			return fmt.Errorf("histogram bound %d does not exceed bound %d", i, i-1)
		}
	}
	kind, err := columnKind(tables, d.Family, splitKey(d.Key))
	if err == nil && d.Continuous != continuousKind(kind) {
		err = fmt.Errorf("continuous=%v does not fit a %v column", d.Continuous, kind)
	}
	return err
}

// columnKind returns the kind of the column an index of family on spec
// reads from tables.
func columnKind(tables map[string]*schema.Table, family string, spec indexSpec) (types.Kind, error) {
	if spec.table == "" {
		// The system-column layered indexes are built in; a system-column
		// ALI is always discrete.
		if family == familyLayered {
			return 0, errors.New("a layered index needs a table")
		}
		_, err := types.SystemColumnKind(spec.col)
		return types.KindString, err
	}
	tbl, ok := tables[spec.table]
	if !ok {
		return 0, errNoTable
	}
	kind, _, err := tbl.ColumnKind(spec.col)
	return kind, err
}

// buildIndexes builds an index for each definition, fed the blocks
// [0, h), and returns for each the step that registers it under its key
// (installDefs); tables are the tables defined at h.
func (e *Engine) buildIndexes(defs []*indexDef, tables map[string]*schema.Table, h uint64) ([]func(), error) {
	regs := make([]func(), len(defs))
	for i, d := range defs {
		var feed blockFeed
		col, hist := splitKey(d.Key).col, d.histogram()
		if d.Family == familyLayered {
			idx := newLayered(col, hist)
			feed, regs[i] = layeredFeed(d.Key, idx.AppendRun), func() { e.lidx = withEntry(e.lidx, d.Key, idx) }
		} else {
			ali := e.newALI(col, hist)
			feed, regs[i] = layeredFeed(d.Key, ali.AppendRun), func() { e.alis = withEntry(e.alis, d.Key, ali) }
		}
		if err := e.backfill(feed, tables, 0, h); err != nil {
			return nil, err
		}
	}
	return regs, nil
}

// unbuilt returns the index definitions d adds to the engine's that no
// registered index serves — all but those pending from the cache with
// an equal definition — and settles every pending index d defines.
// Callers hold e.mu, or own the engine during Open.
func (e *Engine) unbuilt(d chainDefs, pending map[string]*indexDef) []*indexDef {
	if len(d.indexes) == len(e.defs.indexes) {
		return nil // definitions only ever add
	}
	var out []*indexDef
	for _, id := range sortedKeys(d.indexes) {
		if _, ok := e.defs.indexes[id]; ok {
			continue
		}
		if p, ok := pending[id]; !ok || !p.Equal(d.indexes[id]) {
			out = append(out, d.indexes[id])
		}
		delete(pending, id)
	}
	return out
}

// indexCache is indexes.json: the chain's index definitions, in id
// order, each rendered as its record carries it.
type indexCache struct {
	Indexes []*indexDef `json:"indexes"`
}

// readIndexCache returns the definitions indexes.json lists, none for a
// missing or torn file, and the file's bytes.
func (e *Engine) readIndexCache() ([]*indexDef, []byte) {
	raw, err := e.cfg.FS.ReadFile(filepath.Join(e.cfg.Dir, indexMetaFile))
	var c indexCache
	if err != nil || json.Unmarshal(raw, &c) != nil {
		return nil, raw
	}
	return c.Indexes, raw
}

func renderIndexCache(d chainDefs) ([]byte, error) {
	c := indexCache{Indexes: []*indexDef{}}
	for _, id := range sortedKeys(d.indexes) {
		c.Indexes = append(c.Indexes, d.indexes[id])
	}
	raw, err := json.Marshal(&c)
	return append(raw, '\n'), err
}

// saveIndexCache rewrites indexes.json through the engine's filesystem:
// a tmp file, written and fsynced, renamed over the old one, so a crash
// leaves the old cache or the new one, never a torn file. Callers hold
// e.mu, or own the engine during Open. A failed save costs the next
// full-replay Open one more pass and nothing else, so it is logged.
func (e *Engine) saveIndexCache() {
	raw, err := renderIndexCache(e.CurrentView().defs)
	if err == nil {
		err = faultfs.WriteAtomic(e.cfg.FS, filepath.Join(e.cfg.Dir, indexMetaFile), raw)
	}
	if err != nil {
		e.log.Warn("index cache not written", "err", err)
	}
}

// preRegister registers, before the replay, each cached definition the
// restored state lacks, fed the blocks [0, base) a checkpoint covered,
// so the replay feeds it with every other index. It returns them by id,
// pending until the replay meets their record; one whose table is not
// defined yet is checked once it is (dropPending). It runs during Open.
func (e *Engine) preRegister(cached []*indexDef, base uint64) (map[string]*indexDef, error) {
	pending := map[string]*indexDef{}
	var defs []*indexDef
	for _, d := range cached {
		if d == nil || e.defs.indexes[d.id()] != nil || pending[d.id()] != nil || unfit(d, e.defs.tables) != nil {
			continue
		}
		pending[d.id()] = d
		defs = append(defs, d)
	}
	regs, err := e.buildIndexes(defs, e.defs.tables, base)
	if err != nil {
		return nil, fmt.Errorf("core: backfilling cached indexes: %w", err)
	}
	e.installDefs(e.defs, regs)
	return pending, nil
}

// unfit is check's verdict on a cached definition, but for a table
// tables lack, which a later block may define; nil tables, once the
// replay is done, leave no chance.
func unfit(d *indexDef, tables map[string]*schema.Table) error {
	if tables == nil {
		return errors.New("the chain does not define it")
	}
	if err := d.check(tables); !errors.Is(err, errNoTable) {
		return err
	}
	return nil
}

// dropPending drops, with a warning each, the pending indexes unfit
// refuses against tables: indexes the chain does not define. It runs
// during Open.
func (e *Engine) dropPending(pending map[string]*indexDef, tables map[string]*schema.Table) {
	for _, id := range sortedKeys(pending) {
		d := pending[id]
		err := unfit(d, tables)
		if err == nil {
			continue
		}
		delete(pending, id)
		if d.Family == familyLayered {
			e.lidx = withoutEntry(e.lidx, d.Key)
		} else {
			e.alis = withoutEntry(e.alis, d.Key)
		}
		e.idxEpoch++
		e.log.Warn("cached index dropped", "family", d.Family, "key", d.Key, "err", err)
	}
}

// newLayered and newALI build an empty index of either family over attr:
// continuous with hist's buckets, discrete when hist is nil.
func newLayered(attr string, hist *layered.Histogram) *layered.Index {
	if hist != nil {
		return layered.NewContinuous(attr, hist)
	}
	return layered.NewDiscrete(attr)
}

// newALI creates an ALI whose trees are built from the engine's block
// store the first time a query needs them (aliRecords).
func (e *Engine) newALI(attr string, hist *layered.Histogram) *auth.ALI {
	if hist != nil {
		return auth.NewContinuous(attr, hist, mbtree.DefaultFanout).WithSource(e.aliRecords)
	}
	return auth.NewDiscrete(attr, mbtree.DefaultFanout).WithSource(e.aliRecords)
}
