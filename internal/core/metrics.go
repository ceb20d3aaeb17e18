package core

import (
	"unixhash/internal/metrics"
	"unixhash/internal/trace"
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

// counts are a table's own operation counters, one padded cell each,
// allocated apart from the table so a Get's increments share no cache
// line with the fields other readers load. The facts that are also ring
// events (splits, overflow pages, big pairs, filter skips, syncs,
// recovery steps, batch phases) are counted by the table's tracer
// instead: one record per fact.
type counts struct {
	gets, getMisses, puts, dels            metrics.Counter
	chainWalks, chainPages, batchPairs     metrics.Counter
	filterHits, filterFPs, filterPageSkips metrics.Counter
	recoverFailures, recoverRepairs        metrics.Counter
	syncLatency                            metrics.Histogram
}

// Counts is a table's operation counters at one moment (Table.Counts).
type Counts struct {
	Gets, GetMisses, Puts, Deletes       int64
	SplitsControlled, SplitsUncontrolled int64
	OvflAllocs, OvflFrees, Syncs         int64
	// Read-acceleration counters: tag-filter outcomes on Get.
	FilterHits, FilterSkips, FilterFalsePositives, FilterPageSkips int64
}

// Add folds o into c, field by field.
func (c *Counts) Add(o Counts) {
	c.Gets += o.Gets
	c.GetMisses += o.GetMisses
	c.Puts += o.Puts
	c.Deletes += o.Deletes
	c.SplitsControlled += o.SplitsControlled
	c.SplitsUncontrolled += o.SplitsUncontrolled
	c.OvflAllocs += o.OvflAllocs
	c.OvflFrees += o.OvflFrees
	c.Syncs += o.Syncs
	c.FilterHits += o.FilterHits
	c.FilterSkips += o.FilterSkips
	c.FilterFalsePositives += o.FilterFalsePositives
	c.FilterPageSkips += o.FilterPageSkips
}

// Counts reads the table's own counters. It takes no lock and stays
// readable after Close (the counts are then final).
func (t *Table) Counts() Counts {
	n, ev := t.n, t.tr.Count
	return Counts{
		Gets:                 n.gets.Load(),
		GetMisses:            n.getMisses.Load(),
		Puts:                 n.puts.Load(),
		Deletes:              n.dels.Load(),
		SplitsControlled:     ev(trace.EvSplitBegin, 0),
		SplitsUncontrolled:   ev(trace.EvSplitBegin, 1),
		OvflAllocs:           ev(trace.EvOvflAlloc, 0),
		OvflFrees:            ev(trace.EvOvflFree, 0),
		Syncs:                ev(trace.EvSyncEnd, 0),
		FilterHits:           n.filterHits.Load(),
		FilterSkips:          ev(trace.EvFilterSkip, 0),
		FilterFalsePositives: n.filterFPs.Load(),
		FilterPageSkips:      n.filterPageSkips.Load(),
	}
}

// registerMetrics publishes every hash_* series as a read-time view over
// the table's own cells: its counts, its tracer's event counts and its
// live key count and geometry (atomics, so a scrape takes no lock).
// Tables sharing a registry (the shards of a db.Sharded) each register
// their views, which the registry sums. Within a pair that one operation
// bumps in order (a miss after its get, a walk after its pages), the
// later-bumped series registers first, so a snapshot reading in
// registration order never shows more misses than gets.
func (t *Table) registerMetrics() {
	reg, n := t.reg, t.n
	ev := func(typ trace.Type, kind uint64) func() int64 {
		return func() int64 { return t.tr.Count(typ, kind) }
	}
	reg.CounterFunc(MetricGetMisses, n.getMisses.Load)
	reg.CounterFunc(MetricGets, n.gets.Load)
	reg.CounterFunc(MetricPuts, n.puts.Load)
	reg.CounterFunc(MetricDeletes, n.dels.Load)
	reg.CounterFunc(MetricSplitsControlled, ev(trace.EvSplitBegin, 0))
	reg.CounterFunc(MetricSplitsUncontrolled, ev(trace.EvSplitBegin, 1))
	reg.CounterFunc(MetricOvflAllocs, ev(trace.EvOvflAlloc, 0))
	reg.CounterFunc(MetricOvflReuses, ev(trace.EvOvflReuse, 0))
	reg.CounterFunc(MetricOvflFrees, ev(trace.EvOvflFree, 0))
	reg.CounterFunc(MetricBigPairs, ev(trace.EvBigPairWrite, 0))
	reg.CounterFunc(MetricChainWalks, n.chainWalks.Load)
	reg.CounterFunc(MetricChainPages, n.chainPages.Load)
	reg.CounterFunc(MetricBatchPuts, ev(trace.EvBatchEnd, 0))
	reg.CounterFunc(MetricBatchPairs, n.batchPairs.Load)
	reg.CounterFunc(MetricPresizes, ev(trace.EvBatchPhase, trace.BatchPhasePresize))
	reg.CounterFunc(MetricSyncs, ev(trace.EvSyncEnd, 0))
	reg.CounterFunc(MetricRecoverAttempts, ev(trace.EvRecoveryStep, trace.RecoveryStepWalk))
	reg.CounterFunc(MetricRecoverSuccess, ev(trace.EvRecoveryStep, trace.RecoveryStepDone))
	reg.CounterFunc(MetricRecoverFailures, n.recoverFailures.Load)
	reg.CounterFunc(MetricRecoverRepairs, n.recoverRepairs.Load)
	reg.CounterFunc(MetricFilterHits, n.filterHits.Load)
	reg.CounterFunc(MetricFilterSkips, ev(trace.EvFilterSkip, 0))
	reg.CounterFunc(MetricFilterFPs, n.filterFPs.Load)
	reg.CounterFunc(MetricFilterPageSkips, n.filterPageSkips.Load)
	reg.GaugeFunc(MetricKeys, t.nkeysA.Load)
	reg.GaugeFunc(MetricBuckets, func() int64 { return int64(t.geo.Load()) + 1 })
	reg.AddHistogram(MetricSyncLatency, &n.syncLatency)
	// Curated HELP for the read-acceleration group, so a registry dump
	// (dbcli metrics, /metrics) labels it next to the other series
	// instead of leaving the names to speak for themselves.
	reg.Help(MetricFilterHits, "Tag-filter consults that matched: the key may be present, the walk proceeds")
	reg.Help(MetricFilterSkips, "Tag-filter consults that proved the key absent without touching the chain")
	reg.Help(MetricFilterFPs, "Tag-filter matches where the full walk then missed (false positives)")
	reg.Help(MetricFilterPageSkips, "Chain pages bypassed on tag-filter position hints")
}

// MetricsRegistry exposes the table's metric registry. It is the one the
// caller passed in Options.Metrics, or a private one created at open
// time. The registry remains readable after Close (counters are final).
func (t *Table) MetricsRegistry() *metrics.Registry { return t.reg }

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
	return t.reg.Snapshot(), nil
}
