package core

import (
	"unixhash/internal/metrics"
	"unixhash/internal/wal"
)

// Metric names exported by a table into its registry. The hash_ series
// are the table's own structural and operational counters; the buffer_
// and pagefile_ series are registered by the layers below (see
// buffer.Pool.RegisterMetrics and pagefile.Stats.Register).
const (
	MetricGets               = "hash_gets_total"
	MetricGetMisses          = "hash_get_misses_total"
	MetricPuts               = "hash_puts_total"
	MetricDeletes            = "hash_deletes_total"
	MetricSplitsControlled   = "hash_splits_controlled_total"
	MetricSplitsUncontrolled = "hash_splits_uncontrolled_total"
	MetricOvflAllocs         = "hash_ovfl_allocs_total"
	MetricOvflReuses         = "hash_ovfl_reuses_total"
	MetricOvflFrees          = "hash_ovfl_frees_total"
	MetricBigPairs           = "hash_bigpair_writes_total"
	// Chain metrics count traversal past a bucket's primary page only:
	// walks that entered an overflow chain, and the overflow pages they
	// probed (so pages/walks is the mean overflow depth per such walk).
	// The primary-page fast path stays one atomic add per operation.
	MetricChainWalks      = "hash_chain_walks_total"
	MetricChainPages      = "hash_chain_pages_total"
	MetricBatchPuts       = "hash_batch_puts_total"
	MetricBatchPairs      = "hash_batch_pairs_total"
	MetricPresizes        = "hash_presizes_total"
	MetricSyncs           = "hash_syncs_total"
	MetricSyncLatency     = "hash_sync_seconds"
	MetricKeys            = "hash_keys"
	MetricBuckets         = "hash_buckets"
	MetricRecoverAttempts = "hash_recover_attempts_total"
	MetricRecoverSuccess  = "hash_recover_success_total"
	MetricRecoverFailures = "hash_recover_failures_total"
	MetricRecoverRepairs  = "hash_recover_repairs_total"
	// Write-ahead logging, counted by the log's owner (wal.Owner) for a
	// file and for a sharded database alike. Commits are completed
	// transactions; replays are committed transactions reapplied by
	// recovery; checkpoints are syncs that truncated a log holding
	// commits. The log's own I/O counters are exported by
	// wal.Log.RegisterMetrics (wal_*).
	MetricTxnCommits  = wal.MetricTxnCommits
	MetricWalReplays  = wal.MetricWalReplays
	MetricCheckpoints = wal.MetricCheckpoints
	// Read acceleration (see filter.go). Skips are filter consults that
	// proved a key absent with zero chain reads; hits are consults
	// confirmed by a found key; false positives are consults that passed
	// but found nothing; page skips are overflow pages a walk bypassed on
	// position hints.
	MetricFilterHits      = "hash_filter_hits_total"
	MetricFilterSkips     = "hash_filter_skips_total"
	MetricFilterFPs       = "hash_filter_false_positives_total"
	MetricFilterPageSkips = "hash_filter_page_skips_total"
)

// tableMetrics holds the table's resolved metric handles. Handles are
// resolved once at open time so hot-path updates are a single padded
// atomic add — no registry lookups, no locks, no allocation.
type tableMetrics struct {
	reg *metrics.Registry

	gets               *metrics.Counter
	getMisses          *metrics.Counter
	puts               *metrics.Counter
	dels               *metrics.Counter
	splitsControlled   *metrics.Counter
	splitsUncontrolled *metrics.Counter
	ovflAllocs         *metrics.Counter
	ovflReuses         *metrics.Counter
	ovflFrees          *metrics.Counter
	bigPairs           *metrics.Counter
	chainWalks         *metrics.Counter
	chainPages         *metrics.Counter
	batchPuts          *metrics.Counter
	batchPairs         *metrics.Counter
	presizes           *metrics.Counter
	syncs              *metrics.Counter
	syncLatency        *metrics.Histogram
	keys               *metrics.Gauge
	buckets            *metrics.Gauge
	recoverAttempts    *metrics.Counter
	recoverSuccess     *metrics.Counter
	recoverFailures    *metrics.Counter
	recoverRepairs     *metrics.Counter
	filterHits         *metrics.Counter
	filterSkips        *metrics.Counter
	filterFPs          *metrics.Counter
	filterPageSkips    *metrics.Counter
}

// init resolves every handle from reg, creating a private registry when
// the caller supplied none — the counters always work; a registry option
// only decides who else can see them.
func (m *tableMetrics) init(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.New()
	}
	m.reg = reg
	m.gets = reg.Counter(MetricGets)
	m.getMisses = reg.Counter(MetricGetMisses)
	m.puts = reg.Counter(MetricPuts)
	m.dels = reg.Counter(MetricDeletes)
	m.splitsControlled = reg.Counter(MetricSplitsControlled)
	m.splitsUncontrolled = reg.Counter(MetricSplitsUncontrolled)
	m.ovflAllocs = reg.Counter(MetricOvflAllocs)
	m.ovflReuses = reg.Counter(MetricOvflReuses)
	m.ovflFrees = reg.Counter(MetricOvflFrees)
	m.bigPairs = reg.Counter(MetricBigPairs)
	m.chainWalks = reg.Counter(MetricChainWalks)
	m.chainPages = reg.Counter(MetricChainPages)
	m.batchPuts = reg.Counter(MetricBatchPuts)
	m.batchPairs = reg.Counter(MetricBatchPairs)
	m.presizes = reg.Counter(MetricPresizes)
	m.syncs = reg.Counter(MetricSyncs)
	m.syncLatency = reg.Histogram(MetricSyncLatency)
	m.keys = reg.Gauge(MetricKeys)
	m.buckets = reg.Gauge(MetricBuckets)
	m.recoverAttempts = reg.Counter(MetricRecoverAttempts)
	m.recoverSuccess = reg.Counter(MetricRecoverSuccess)
	m.recoverFailures = reg.Counter(MetricRecoverFailures)
	m.recoverRepairs = reg.Counter(MetricRecoverRepairs)
	// Curated HELP for the read-acceleration group, so a registry dump
	// (dbcli metrics, /metrics) labels it next to the other series
	// instead of leaving the names to speak for themselves.
	reg.Help(MetricFilterHits, "Tag-filter consults that matched: the key may be present, the walk proceeds")
	m.filterHits = reg.Counter(MetricFilterHits)
	reg.Help(MetricFilterSkips, "Tag-filter consults that proved the key absent without touching the chain")
	m.filterSkips = reg.Counter(MetricFilterSkips)
	reg.Help(MetricFilterFPs, "Tag-filter matches where the full walk then missed (false positives)")
	m.filterFPs = reg.Counter(MetricFilterFPs)
	reg.Help(MetricFilterPageSkips, "Chain pages bypassed on tag-filter position hints")
	m.filterPageSkips = reg.Counter(MetricFilterPageSkips)
}

// setShape publishes the table's key count and bucket count as gauges.
// Pushed by the writer whenever a write set, a presize or a recovery
// settles, so the gauges never require taking the table lock at scrape
// time (a
// GaugeFunc reading the header from inside Snapshot would deadlock
// against a writer snapshotting its own table).
func (m *tableMetrics) setShape(nkeys int64, maxBucket uint32) {
	m.keys.Set(nkeys)
	m.buckets.Set(int64(maxBucket) + 1)
}

// MetricsRegistry exposes the table's metric registry. It is the one the
// caller passed in Options.Metrics, or a private one created at open
// time. The registry remains readable after Close (counters are final).
func (t *Table) MetricsRegistry() *metrics.Registry { return t.m.reg }

// MetricsSnapshot captures every metric the table and its layers
// (buffer pool, page store) export. A closed table returns ErrClosed
// rather than a stale snapshot.
func (t *Table) MetricsSnapshot() (metrics.Snapshot, error) {
	t.mu.RLock()
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return metrics.Snapshot{}, ErrClosed
	}
	// Taken outside the table lock: the pool's computed gauges take shard
	// locks of their own, and a scrape must not block table writers.
	return t.m.reg.Snapshot(), nil
}
