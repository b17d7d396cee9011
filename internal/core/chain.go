package core

import (
	"fmt"
	"math"
	"strconv"

	"sebdb/internal/cache"
	"sebdb/internal/index/layered"
	"sebdb/internal/parallel"
	"sebdb/internal/schema"
	"sebdb/internal/types"
)

// Block and Tx are the engine's physical read: the configured cache
// policy interposed between the callers — View (the read surface the
// query operators run against), the node and the replica layers — and
// the block files. Neither takes an engine lock.

// Cache keys are "b:<bid>" and "t:<bid>:<pos>", built into a stack
// buffer only once a cache is known to exist; the string conversion on
// the Get does not allocate, the one on a miss's Put must.
const cacheKeyLen = 2 + 20 + 1 + 10

func blockKey(buf []byte, bid uint64) []byte {
	return strconv.AppendUint(append(buf, "b:"...), bid, 10)
}

func txKey(buf []byte, bid uint64, pos uint32) []byte {
	buf = strconv.AppendUint(append(buf, "t:"...), bid, 10)
	return strconv.AppendUint(append(buf, ':'), uint64(pos), 10)
}

// Block reads a block, serving and populating the block cache when the
// engine runs in CacheBlocks mode.
func (e *Engine) Block(bid uint64) (*types.Block, error) {
	if e.blockCache == nil {
		return e.store.Block(bid)
	}
	var kb [cacheKeyLen]byte
	key := blockKey(kb[:0], bid)
	if v, ok := e.blockCache.Get(string(key)); ok {
		return v.(*types.Block), nil
	}
	b, err := e.store.Block(bid)
	if err != nil {
		return nil, err
	}
	// The store knows the block's encoded length; re-serializing the
	// block just to size the cache entry would double the miss cost.
	size, err := e.store.BodyLen(bid)
	if err != nil {
		return nil, err
	}
	e.blockCache.Put(string(key), b, size)
	return b, nil
}

// FilterBlock reads block bid and returns, in chain order, the
// transactions keep accepts, and how many the block holds. Uncached,
// the store's body is filtered before anything is built
// (types.FilterBlock): keep sees a scratch transaction aliasing the
// read buffer and must not retain it. In CacheBlocks mode the cached
// decoded block is filtered instead.
func (e *Engine) FilterBlock(bid uint64, keep func(*types.Transaction) (bool, error)) ([]*types.Transaction, int, error) {
	if e.blockCache != nil {
		b, err := e.Block(bid)
		if err != nil {
			return nil, 0, err
		}
		var out []*types.Transaction
		for _, tx := range b.Txs {
			ok, err := keep(tx)
			if err != nil {
				return nil, 0, err
			}
			if ok {
				out = append(out, tx)
			}
		}
		return out, len(b.Txs), nil
	}
	var out []*types.Transaction
	var n int
	err := e.store.Body(bid, func(body []byte, txOffs []uint32) (err error) {
		out, err = types.FilterBlock(body, txOffs, keep)
		n = len(txOffs) - 1
		return err
	})
	return out, n, err
}

// Tx reads one transaction by (block, position). In CacheTxs mode the
// individual transaction is cached — the paper's transaction cache,
// which §VII-H shows beating the block cache for index-driven queries.
func (e *Engine) Tx(bid uint64, pos uint32) (*types.Transaction, error) {
	var kb [cacheKeyLen]byte
	var key []byte
	if e.txCache != nil {
		key = txKey(kb[:0], bid, pos)
		if v, ok := e.txCache.Get(string(key)); ok {
			return v.(*types.Transaction), nil
		}
	}
	var tx *types.Transaction
	if e.blockCache != nil {
		// Block-cache policy: whole blocks are the cache unit, so route
		// the read through them.
		b, err := e.Block(bid)
		if err != nil {
			return nil, err
		}
		if pos >= uint32(len(b.Txs)) {
			return nil, fmt.Errorf("core: block %d has no tx at %d", bid, pos)
		}
		tx = b.Txs[pos]
	} else {
		// Tuple-sized random read (Equation 3's p*(t_S+t_T) access).
		var err error
		tx, err = e.store.ReadTx(bid, pos)
		if err != nil {
			return nil, err
		}
	}
	if e.txCache != nil {
		e.txCache.Put(string(key), tx, int64(tx.Size()))
	}
	return tx, nil
}

// CacheStats snapshots the active cache's counters: cumulative hits,
// misses, evictions and lock contention plus current occupancy,
// aggregated over every shard — the same shape the unsharded cache
// reported. A CacheNone engine reports zeros.
func (e *Engine) CacheStats() cache.Counters {
	switch {
	case e.blockCache != nil:
		return e.blockCache.Counters()
	case e.txCache != nil:
		return e.txCache.Counters()
	}
	return cache.Counters{}
}

// sampleColumn collects up to limit values of table.col from the chain
// for histogram construction, skipping NaN, which a chain written before
// tuples were checked may hold and no bound may be. Blocks are read straight from
// the store, past the query cache, as backfill reads them, and decoded
// by the worker pool; values are concatenated in height order and
// trimmed at limit, so the sample matches a sequential scan exactly.
// tables must define spec's table.
func (e *Engine) sampleColumn(spec indexSpec, tables map[string]*schema.Table, limit int) ([]float64, error) {
	var out []float64
	err := parallel.Ordered(e.Parallelism(), e.store.Count(),
		func(bid int) ([]float64, error) {
			b, err := e.store.Block(uint64(bid))
			if err != nil {
				return nil, err
			}
			value := extractorFor(spec.key(), tables)
			var vals []float64
			for _, tx := range b.Txs {
				v, ok, err := value(tx)
				if err != nil {
					return nil, err
				}
				if ok && v.Numeric() && !math.IsNaN(v.Float()) {
					vals = append(vals, v.Float())
				}
			}
			return vals, nil
		},
		func(_ int, vals []float64) error {
			out = append(out, vals...)
			if len(out) >= limit {
				return parallel.Stop
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// CreateIndex creates a layered index on table.col: continuous
// (numeric) columns get an equal-depth histogram first level, discrete
// columns a per-value bitmap. See createIndex.
func (e *Engine) CreateIndex(table, col string) error {
	return e.createIndex(familyLayered, table, col)
}

// CreateAuthIndex creates an ALI on table.col ("" table addresses the
// system columns, e.g. CreateAuthIndex("", "tname") for authenticated
// tracking). See createIndex.
func (e *Engine) CreateAuthIndex(table, col string) error {
	return e.createIndex(familyAuth, table, col)
}

// createIndex is the one index-creation protocol. The definition rides
// the chain as an _index record, which every node, this one included,
// builds into the index when installing its block. A view that holds the
// index already makes it a no-op on any node; a follower without it gets
// ErrFollower. Otherwise a continuous column's first level is sampled
// once (§IV-B: "created by sampling historical transactions during index
// creating") and the record flushed with the mempool. All of it runs
// under the writer lock, so a second creation of the same index finds
// the first's record installed instead of proposing a conflicting one.
func (e *Engine) createIndex(family, table, col string) error {
	return e.writePipeline(func() error {
		v := e.CurrentView()
		spec := indexSpec{table: table, col: col}
		if table != "" {
			tbl, err := v.Table(table)
			if err != nil {
				return err
			}
			spec.table = tbl.Name
		}
		kind, err := columnKind(v.defs.tables, family, spec)
		if err != nil {
			return fmt.Errorf("core: %s index on %q: %w", family, spec.key(), err)
		}
		d := &indexDef{Family: family, Key: spec.key(), Continuous: continuousKind(kind)}
		if _, ok := v.defs.indexes[d.id()]; ok {
			return nil
		}
		if e.follower.Load() {
			return ErrFollower
		}
		if d.Continuous {
			sample, err := e.sampleColumn(spec, v.defs.tables, 100_000)
			if err != nil {
				return err
			}
			d = defOf(family, d.Key, layered.NewEqualDepth(sample, e.cfg.HistogramDepth))
		}
		enc, err := d.encode()
		if err != nil {
			return err
		}
		tx := &types.Transaction{Ts: e.nowMicro(), SenID: e.cfg.DefaultSender, Tname: indexTable,
			Args: []types.Value{types.Str(string(enc))}}
		e.signFor(tx, tx.SenID)
		return e.commitPool(e.takePool(tx), e.nowMicro())
	})
}

// continuousKind reports whether a column of kind gets a histogram
// first level.
func continuousKind(kind types.Kind) bool {
	return kind == types.KindInt || kind == types.KindDecimal || kind == types.KindTimestamp
}

// backfill feeds the blocks of [lo, hi) to an index, decoding and
// building ahead with the worker pool; the links run on this goroutine
// in height order, as the indexes require. tables are the
// tables defined at hi.
func (e *Engine) backfill(feed blockFeed, tables map[string]*schema.Table, lo, hi uint64) error {
	if lo >= hi {
		return nil
	}
	return parallel.Ordered(e.Parallelism(), int(hi-lo),
		func(i int) (func(), error) {
			b, err := e.store.Block(lo + uint64(i))
			if err != nil {
				return nil, err
			}
			return feed(b, tables)
		},
		func(_ int, link func()) error {
			link()
			return nil
		})
}
