package core

import (
	"fmt"
	"strconv"

	"sebdb/internal/auth"
	"sebdb/internal/cache"
	"sebdb/internal/index/layered"
	"sebdb/internal/parallel"
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
// for histogram construction (§IV-B: "created by sampling historical
// transactions during index creating"). Blocks are read straight from
// the store, past the query cache, as backfill reads them, and decoded
// by the worker pool; values are concatenated in height order and
// trimmed at limit, so the sample matches a sequential scan exactly.
func (e *Engine) sampleColumn(spec indexSpec, limit int) ([]float64, error) {
	var out []float64
	err := parallel.Ordered(e.Parallelism(), e.store.Count(),
		func(bid int) ([]float64, error) {
			b, err := e.store.Block(uint64(bid))
			if err != nil {
				return nil, err
			}
			value := e.extractorFor(spec.key())
			var vals []float64
			for _, tx := range b.Txs {
				v, ok, err := value(tx)
				if err != nil {
					return nil, err
				}
				if ok && v.Numeric() {
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

// CreateIndex creates a layered index on table.col, backfilling it over
// every existing block, and persists its definition. Continuous
// (numeric) columns get an equal-depth histogram first level; discrete
// columns a per-value bitmap. It is a no-op if the index already exists.
func (e *Engine) CreateIndex(table, col string) error {
	return e.persistIfCreated(e.createLayered(table, col))
}

// CreateAuthIndex creates an ALI on table.col ("" table addresses the
// system columns, e.g. CreateAuthIndex("", "tname") for authenticated
// tracking), backfilled over the existing chain, and persists its
// definition.
func (e *Engine) CreateAuthIndex(table, col string) error {
	return e.persistIfCreated(e.createAuth(table, col))
}

// persistIfCreated rewrites indexes.json after a creation registered a
// new index.
func (e *Engine) persistIfCreated(created bool, err error) error {
	if err != nil || !created {
		return err
	}
	return e.saveIndexMeta()
}

// createLayered is CreateIndex without the persist.
func (e *Engine) createLayered(table, col string) (bool, error) {
	tbl, err := e.catalog.Lookup(table)
	if err != nil {
		return false, err
	}
	kind, _, err := tbl.ColumnKind(col)
	if err != nil {
		return false, err
	}
	spec := indexSpec{table: tbl.Name, col: col}
	return createIndex(e, &e.lidx, spec.key(), e.layeredFeed, func() (*layered.Index, error) {
		hist, err := e.sampleHistogram(spec, kind)
		return newLayered(col, hist), err
	})
}

// createAuth is CreateAuthIndex without the persist.
func (e *Engine) createAuth(table, col string) (bool, error) {
	spec := indexSpec{table: table, col: col}
	// System columns always get a discrete first level, so kind stays
	// KindString for them.
	kind := types.KindString
	if table != "" {
		tbl, err := e.catalog.Lookup(table)
		if err != nil {
			return false, err
		}
		k, _, err := tbl.ColumnKind(col)
		if err != nil {
			return false, err
		}
		spec.table = tbl.Name
		kind = k
	} else if _, err := types.SystemColumnKind(col); err != nil {
		return false, fmt.Errorf("core: auth index on %q: %w", col, err)
	}
	return createIndex(e, &e.alis, spec.key(), e.aliFeed, func() (*auth.ALI, error) {
		hist, err := e.sampleHistogram(spec, kind)
		return newALI(col, hist), err
	})
}

// sampleHistogram samples an equal-depth first level for a continuous
// column; nil for a discrete one.
func (e *Engine) sampleHistogram(spec indexSpec, kind types.Kind) (*layered.Histogram, error) {
	if !continuousKind(kind) {
		return nil, nil
	}
	sample, err := e.sampleColumn(spec, 100_000)
	if err != nil {
		return nil, err
	}
	return layered.NewEqualDepth(sample, e.cfg.HistogramDepth), nil
}

// continuousKind reports whether a column of kind gets a histogram
// first level.
func continuousKind(kind types.Kind) bool {
	return kind == types.KindInt || kind == types.KindDecimal || kind == types.KindTimestamp
}

// createIndex is the one index-creation protocol, shared by the layered
// indexes and the ALIs, and by local creation and adopted definitions:
// build the empty index (sampling or adopting its first level),
// backfill without holding e.mu so commits keep flowing, then close the
// gap under the lock — blocks committed after the first pass are fed
// before the registration makes the index visible (commits take e.mu
// too), so no committed block is ever missed — register and republish.
// It reports whether it registered the index; persisting the definition
// is the caller's. family is the engine map the index registers in,
// read and replaced only under e.mu.
func createIndex[I any](e *Engine, family *map[string]I, key string,
	feedOf func(key string, idx I) blockFeed, build func() (I, error)) (bool, error) {
	e.mu.RLock()
	_, exists := (*family)[key]
	e.mu.RUnlock()
	if exists {
		return false, nil
	}

	idx, err := build()
	if err != nil {
		return false, err
	}
	feed := feedOf(key, idx)
	done := uint64(e.store.Count())
	if err := e.backfill(feed, 0, done); err != nil {
		return false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := (*family)[key]; exists {
		return false, nil
	}
	if err := e.backfill(feed, done, uint64(e.store.Count())); err != nil {
		return false, err
	}
	*family = withEntry(*family, key, idx)
	e.idxEpoch++
	// Republish so the registration reaches readers: views snapshot the
	// index maps, so without a new view the index would stay invisible.
	e.publishViewLocked()
	return true, nil
}

// backfill feeds the blocks of [lo, hi) to an index, decoding and
// extracting ahead with the worker pool; the appends run on this
// goroutine in height order, as the indexes require.
func (e *Engine) backfill(feed blockFeed, lo, hi uint64) error {
	if lo >= hi {
		return nil
	}
	return parallel.Ordered(e.Parallelism(), int(hi-lo),
		func(i int) (func(), error) {
			b, err := e.store.Block(lo + uint64(i))
			if err != nil {
				return nil, err
			}
			return feed(b)
		},
		func(_ int, appendIt func()) error {
			appendIt()
			return nil
		})
}
