// Package db is the key/data interface the paper's conclusion describes
// ("a key/data pair interface ... allowing application implementations
// to be largely independent of the database type"), in the Go shape of
// 4.4BSD's dbopen(3). The package ships one access method, the paper's
// hash; the btree the paper names is its future work. Two shapes
// implement DB: a single table (Open) and a database partitioned into
// shards that share one write-ahead log (OpenSharded).
package db

import (
	"errors"
	"fmt"

	"unixhash/internal/core"
	"unixhash/internal/metrics"
)

// Method names the access method in Open and Stats. Hash is its only
// value; the type stays because the benchmark's traced stack compiles
// against Open's signature and Stats.Method.
type Method int

// Hash is the paper's linear-hashing access method.
const Hash Method = 0

func (m Method) String() string {
	if m == Hash {
		return "hash"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Errors returned through the DB interface.
var (
	ErrNotFound  = errors.New("db: key not found")
	ErrKeyExists = errors.New("db: key already exists")
	// ErrBadOptions wraps every option-validation failure from Open. The
	// error text names the rejected field and value, so a misconfigured
	// open fails loudly instead of being silently clamped to a default.
	ErrBadOptions = errors.New("db: invalid options")
)

// Config carries the table options to Open and OpenSharded; nil selects
// defaults. Its one field keeps the Config{Hash: ...} shape the
// benchmark's traced stack compiles against.
type Config struct {
	Hash *core.Options
}

// Pair is one key/data pair for batched insertion (PutBatch).
type Pair = core.Pair

// DB is the key/data interface. A single table (Open) and a sharded
// database (OpenSharded) implement it, and so may a caller's own
// decorator.
type DB interface {
	// Get returns the data stored under key (ErrNotFound if absent).
	Get(key []byte) ([]byte, error)
	// GetBuf is Get with caller-supplied storage: the data is appended
	// to dst[:0] and the resulting slice returned, so a hot read loop
	// can run allocation-free by reusing one buffer.
	GetBuf(key, dst []byte) ([]byte, error)
	// Put stores data under key, replacing an existing value.
	Put(key, data []byte) error
	// PutBatch stores every pair with Put semantics (last occurrence of
	// a duplicate key wins), in one latch epoch over the bucket stripes
	// the batch touches, with bucket-grouped inserts and deferred splits
	// (core.Table.PutBatch); a sharded database applies one such
	// sub-batch per shard, concurrently.
	PutBatch(pairs []Pair) error
	// PutNew stores data under key, failing with ErrKeyExists.
	PutNew(key, data []byte) error
	// Delete removes key (ErrNotFound if absent).
	Delete(key []byte) error
	// Begin starts a transaction: an atomic batch of Put/Delete made
	// durable and visible as one unit by Commit. It needs a write-ahead
	// log (core.Options.WAL); without one Begin reports core.ErrNoWAL.
	// Sharded databases commit through their one log: atomic across
	// shards (see Sharded.Begin).
	Begin() (Txn, error)
	// Seq returns a cursor over every pair, in bucket order (shard by
	// shard on a sharded database).
	Seq() Cursor
	// Len reports the number of stored pairs.
	Len() int
	// Sync flushes to stable storage.
	Sync() error
	// Stats reports the database's statistics; the table detail rides
	// in Stats.Hash. A closed database returns core.ErrClosed, never a
	// stale snapshot.
	Stats() (Stats, error)
	// Close flushes and closes.
	Close() error
}

// Stats is the statistics view of a database, without casting a DB to
// its concrete type. Method stays because the benchmark's traced stack
// compiles against it; it is always Hash.
type Stats struct {
	Method   Method
	Keys     int64
	Pages    int64 // pages in the backing store
	PageSize int
	// Buffer-pool behaviour.
	CacheHits     int64
	CacheMisses   int64
	CacheHitRatio float64
	Hash          *HashStats
	// Shards carries the per-shard breakdown of a sharded database
	// (OpenSharded): entry i is shard i's own Stats. Nil for unsharded
	// databases; the top-level fields of a sharded Stats are the
	// aggregate over every shard.
	Shards []Stats `json:",omitempty"`
}

// HashStats is the hash table's detail: the paper's fill statistics
// plus the operation and split counters from the metrics registry.
type HashStats struct {
	Buckets            uint32
	OverflowPages      int
	BigPairPages       int
	BitmapPages        int
	MaxChain           int
	ChainDist          []int // ChainDist[i] buckets have chains of i+1 pages
	AvgFill            float64
	EmptyBuckets       int
	Gets               int64
	GetMisses          int64
	Puts               int64
	Deletes            int64
	SplitsControlled   int64
	SplitsUncontrolled int64
	OvflAllocs         int64
	OvflFrees          int64
	Syncs              int64
	// Read-acceleration counters: tag-filter outcomes on Get and
	// vectored chain read-ahead activity.
	FilterHits           int64
	FilterSkips          int64
	FilterFalsePositives int64
	FilterPageSkips      int64
	// FilterHitRate is the fraction of filter consults that proved the
	// key absent without touching a page (skips over all consults).
	FilterHitRate   float64
	Prefetches      int64
	PrefetchedPages int64
	// Write-ahead log activity; all zero for a table without a log.
	// A sharded database has one log for all shards: its aggregate
	// carries every figure below once, and an entry of Stats.Shards only
	// that shard's own WalLSN stamp and WalAppliedLSN.
	WalLSN        uint64 // checkpoint LSN from the header
	WalAppliedLSN uint64 // last commit applied to the table's memory
	WalLastLSN    uint64 // last appended commit LSN
	// WalCheckpointLag counts the LSNs a crash right now would replay:
	// WalLastLSN - WalLSN.
	WalCheckpointLag uint64
	// TxnCommits counts committed transactions — on a sharded database,
	// wire transactions, however many shards each touched.
	TxnCommits       int64
	WalAppends       int64
	WalFsyncs        int64
	WalFsyncJoins    int64 // commits that shared another committer's fsync
	WalAppendedBytes int64
	WalIOTimeNS      int64
}

// Cursor iterates key/data pairs. Key and Value are valid until the next
// call to Next.
type Cursor interface {
	Next() bool
	Key() []byte
	Value() []byte
	Err() error
}

// Open opens path as a single hash table; m must be Hash. An empty path
// is memory-resident.
func Open(path string, m Method, cfg *Config) (DB, error) {
	if m != Hash {
		return nil, fmt.Errorf("db: unknown access method %v", m)
	}
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if err := validate(c.Hash); err != nil {
		return nil, err
	}
	t, err := core.Open(path, c.Hash)
	if err != nil {
		return nil, err
	}
	return &hashDB{t}, nil
}

// validate runs the table option validation, wrapping any failure in
// ErrBadOptions with the field named.
func validate(o *core.Options) error {
	if err := o.Validate(); err != nil {
		return fmt.Errorf("%w: hash option %v", ErrBadOptions, err)
	}
	return nil
}

// --- hash adapter ---

type hashDB struct{ t *core.Table }

// The plain DB methods are the ledger-carrying forms (oplog.go) with
// attribution off.
func (d *hashDB) Get(key []byte) ([]byte, error)         { return d.GetBufOp(nil, key, nil) }
func (d *hashDB) GetBuf(key, dst []byte) ([]byte, error) { return d.GetBufOp(nil, key, dst) }
func (d *hashDB) Put(key, data []byte) error             { return d.PutOp(nil, key, data) }
func (d *hashDB) Delete(key []byte) error                { return d.DeleteOp(nil, key) }

// PutBatch applies the whole batch in one latch epoch: pairs grouped by
// bucket, splits deferred to one pass at batch end (see
// core.Table.PutBatch).
func (d *hashDB) PutBatch(pairs []Pair) error { return d.PutBatchOp(nil, pairs) }

func (d *hashDB) PutNew(key, data []byte) error {
	err := d.t.PutNew(key, data)
	if errors.Is(err, core.ErrKeyExists) {
		return ErrKeyExists
	}
	return err
}

func (d *hashDB) Seq() Cursor  { return d.t.Iter() }
func (d *hashDB) Len() int     { return d.t.Len() }
func (d *hashDB) Sync() error  { return d.t.Sync() }
func (d *hashDB) Close() error { return d.t.Close() }

func (d *hashDB) Stats() (Stats, error) {
	s, err := d.shape()
	if err != nil {
		return Stats{}, err
	}
	snap, err := d.t.MetricsSnapshot()
	if err != nil {
		return Stats{}, err
	}
	s.Hash.setCounters(snap)
	return s, nil
}

// shape is the table's Stats less the registry counters: one Heatmap
// walk plus the pool's and the log's figures, all under shared locks.
func (d *hashDB) shape() (Stats, error) {
	h, err := d.t.Heatmap()
	if err != nil {
		return Stats{}, err
	}
	c := d.t.Pool().Counters()
	hs := &HashStats{
		Buckets:       h.Buckets,
		OverflowPages: h.OverflowPages,
		BigPairPages:  h.BigPairPages,
		BitmapPages:   h.BitmapPages,
		MaxChain:      h.MaxChain + 1, // in pages, the primary included
		ChainDist:     h.ChainDist,
		AvgFill:       h.AvgFill,
		EmptyBuckets:  h.EmptyBuckets,
	}
	var last uint64
	hs.WalLSN, hs.WalAppliedLSN, last = d.t.WALLSNs()
	if ws, ok := d.t.WALStats(); ok {
		hs.WalAppends = ws.Appends
		hs.WalFsyncs = ws.Fsyncs
		hs.WalFsyncJoins = ws.FsyncJoins
		hs.WalAppendedBytes = ws.AppendedBytes
		hs.WalIOTimeNS = int64(ws.IOTime)
		hs.WalLastLSN = last
		if last > hs.WalLSN {
			hs.WalCheckpointLag = last - hs.WalLSN
		}
	}
	return Stats{
		Method:        Hash,
		Keys:          h.NKeys,
		Pages:         int64(d.t.Store().NPages()),
		PageSize:      d.t.Store().PageSize(),
		CacheHits:     c.Hits,
		CacheMisses:   c.Misses,
		CacheHitRatio: c.HitRatio(),
		Hash:          hs,
	}, nil
}

// setCounters fills h's operation counters from a registry snapshot,
// and the filter hit rate derived from them (zero consults yields zero).
func (h *HashStats) setCounters(snap metrics.Snapshot) {
	h.Gets = snap.Counter(core.MetricGets)
	h.GetMisses = snap.Counter(core.MetricGetMisses)
	h.Puts = snap.Counter(core.MetricPuts)
	h.Deletes = snap.Counter(core.MetricDeletes)
	h.SplitsControlled = snap.Counter(core.MetricSplitsControlled)
	h.SplitsUncontrolled = snap.Counter(core.MetricSplitsUncontrolled)
	h.OvflAllocs = snap.Counter(core.MetricOvflAllocs)
	h.OvflFrees = snap.Counter(core.MetricOvflFrees)
	h.Syncs = snap.Counter(core.MetricSyncs)
	h.FilterHits = snap.Counter(core.MetricFilterHits)
	h.FilterSkips = snap.Counter(core.MetricFilterSkips)
	h.FilterFalsePositives = snap.Counter(core.MetricFilterFPs)
	h.FilterPageSkips = snap.Counter(core.MetricFilterPageSkips)
	h.Prefetches = snap.Counter(core.MetricPrefetches)
	h.PrefetchedPages = snap.Counter(core.MetricPrefetchedPages)
	h.TxnCommits = snap.Counter(core.MetricTxnCommits)
	if t := h.FilterHits + h.FilterSkips; t > 0 {
		h.FilterHitRate = float64(h.FilterSkips) / float64(t)
	}
}

// table exposes the underlying hash table inside the package (telemetry
// mounting, Verify, Compact). Deliberately unexported: applications use
// the DB interface — table-level operations go through Begin, Verify and
// Compact, never through the concrete table.
func (d *hashDB) table() *core.Table { return d.t }

// Static interface checks.
var (
	_ DB     = (*hashDB)(nil)
	_ Cursor = (*core.Iterator)(nil)
)
