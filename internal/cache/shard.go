package cache

import "hash/fnv"

// Sharded is a byte-bounded LRU striped over N independently locked
// shards. Keys are distributed by FNV-1a hash, so concurrent readers
// on different keys contend on different mutexes — the single global
// cache mutex was the last shared lock on the otherwise lock-free view
// read path. Aggregate semantics (capacity, Counters) match a single
// LRU of the same total capacity; only eviction locality differs (each
// shard evicts within its own stripe).
type Sharded struct {
	shards []*LRU
	mask   uint32
}

// DefaultShards is the shard count used when callers pass zero.
const DefaultShards = 8

// NewSharded returns a sharded LRU bounded to capBytes in total,
// striped over the given number of shards (rounded up to a power of
// two; zero means DefaultShards). Each shard is bounded to its equal
// split of the capacity.
func NewSharded(capBytes int64, shards int) *Sharded {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := capBytes / int64(n)
	s := &Sharded{shards: make([]*LRU, n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i] = NewLRU(per)
	}
	return s
}

// shard maps a key to its stripe by FNV-1a hash.
func (s *Sharded) shard(key string) *LRU {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()&s.mask]
}

// Get returns the cached value for key and promotes it in its shard.
func (s *Sharded) Get(key string) (any, bool) { return s.shard(key).Get(key) }

// Put inserts or refreshes key in its shard, evicting within that
// shard to stay within its capacity split.
func (s *Sharded) Put(key string, val any, size int64) { s.shard(key).Put(key, val, size) }

// Shards returns the number of stripes.
func (s *Sharded) Shards() int { return len(s.shards) }

// Len returns the total number of cached entries.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Used returns the total accounted bytes currently cached.
func (s *Sharded) Used() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Used()
	}
	return n
}

// Counters aggregates all shards' statistics — the same shape a single
// LRU reports, so dashboards and tests keyed on the unsharded cache
// read identically.
func (s *Sharded) Counters() Counters {
	var out Counters
	for _, sh := range s.shards {
		c := sh.Counters()
		out.Hits += c.Hits
		out.Misses += c.Misses
		out.Evictions += c.Evictions
		out.Contention += c.Contention
		out.Bytes += c.Bytes
		out.Entries += c.Entries
	}
	return out
}

// ShardCounters returns each shard's statistics in stripe order, for
// occupancy and contention introspection (Engine.CacheStats exposes the
// aggregate; the per-shard view shows skew).
func (s *Sharded) ShardCounters() []Counters {
	out := make([]Counters, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Counters()
	}
	return out
}

// Reset drops all entries and statistics in every shard.
func (s *Sharded) Reset() {
	for _, sh := range s.shards {
		sh.Reset()
	}
}
