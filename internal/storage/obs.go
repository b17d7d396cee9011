package storage

import "sebdb/internal/obs"

// Physical-read metrics, reported to the default registry. Every read
// goes through Store.readAt and is split by granularity: "block" covers
// whole-body transfers (Body and Block — the t_S + B·t_T term of
// Equations 1-2), "tx" covers the tuple-sized random reads of the
// layered index path (ReadTx, Equation 3's p·(t_S + t_T)). The byte counters count what
// the read took off the segment: the record header plus the stored
// payload for a whole record, the tuple's bytes alone for a tuple of a
// plain record.
var (
	mBlockReads = obs.Default.Counter(`sebdb_storage_segment_reads_total{kind="block"}`)
	mTxReads    = obs.Default.Counter(`sebdb_storage_segment_reads_total{kind="tx"}`)
	mBlockBytes = obs.Default.Counter(`sebdb_storage_read_bytes_total{kind="block"}`)
	mTxBytes    = obs.Default.Counter(`sebdb_storage_read_bytes_total{kind="tx"}`)
	mAppends    = obs.Default.Counter("sebdb_storage_appends_total")
	mAppendWr   = obs.Default.Counter("sebdb_storage_append_bytes_total")
)

// Tiered-read-path metrics: which backend served each segment read,
// how much the cold tier saved, and how the bounded handle cache is
// behaving.
var (
	mTierPread = obs.Default.Counter(`sebdb_storage_tier_reads_total{tier="pread"}`)
	mTierMmap  = obs.Default.Counter(`sebdb_storage_tier_reads_total{tier="mmap"}`)
	// mCompressedBytes tracks the stored (deflated) payload bytes
	// currently on disk in compressed records.
	mCompressedBytes = obs.Default.Gauge("sebdb_storage_compressed_bytes")
	// mCompressSaved accumulates raw-minus-stored byte savings across
	// all recompression rewrites.
	mCompressSaved = obs.Default.Counter("sebdb_storage_compress_saved_bytes_total")
	mRecompressed  = obs.Default.Counter("sebdb_storage_segments_recompressed_total")
	// mMmapFallbacks counts sealed-segment opens that wanted mmap but
	// fell back to pread (platform without mmap, mapping failure, or an
	// FS that does not implement faultfs.Mapper).
	mMmapFallbacks = obs.Default.Counter("sebdb_storage_mmap_fallbacks_total")
	// Handle-cache health: evicted descriptors and lock contention.
	mHandleEvictions  = obs.Default.Counter("sebdb_storage_handle_evictions_total")
	mHandleContention = obs.Default.Counter("sebdb_storage_handle_lock_contention_total")
)

// readKind is the granularity a segment read is counted under.
type readKind struct{ reads, bytes *obs.Counter }

var (
	blockRead = readKind{mBlockReads, mBlockBytes}
	txRead    = readKind{mTxReads, mTxBytes}
)

// count records one read of n bytes off a segment, served by tier.
func (k readKind) count(n int, tier string) {
	k.reads.Inc()
	k.bytes.Add(uint64(n))
	if tier == TierMmap {
		mTierMmap.Inc()
	} else {
		mTierPread.Inc()
	}
}
