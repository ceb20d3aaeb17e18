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
	"unixhash/internal/wal"
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

// Errors returned through the DB interface. A missing or existing key
// is reported with the table's own sentinel, so a caller may match
// either name.
var (
	ErrNotFound  = core.ErrNotFound
	ErrKeyExists = core.ErrKeyExists
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
// plus the table's own operation and split counters (core.Counts; a
// sharded database's aggregate sums its shards').
type HashStats struct {
	Buckets       uint32
	OverflowPages int
	BigPairPages  int
	BitmapPages   int
	MaxChain      int
	ChainDist     []int // ChainDist[i] buckets have chains of i+1 pages
	AvgFill       float64
	EmptyBuckets  int
	core.Counts
	// FilterHitRate is the fraction of filter consults that proved the
	// key absent without touching a page: skips over all consults, false
	// positives included, as core.Heatmap's FilterSkipRate.
	FilterHitRate float64
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
	// TxnCommits counts the log owner's committed transactions — on a
	// sharded database, wire transactions, however many shards each
	// touched.
	TxnCommits       int64
	WalAppends       int64
	WalFsyncs        int64
	WalFsyncJoins    int64 // commits that shared another committer's fsync
	WalAppendedBytes int64
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

// hashDB is a single table behind the DB interface: the table's own
// methods, their ...Op forms included, serve every DB method but Seq,
// Begin and Stats.
type hashDB struct{ *core.Table }

func (d *hashDB) Seq() Cursor { return d.Iter() }

// Begin returns the core transaction as a Txn, and a nil Txn, not a nil
// *core.Txn inside one, when the table cannot begin one.
func (d *hashDB) Begin() (Txn, error) {
	x, err := d.Table.Begin()
	if err != nil {
		return nil, err
	}
	return x, nil
}

// Stats is one Heatmap walk plus the table's counts and the pool's and
// the log's figures, all under shared locks.
func (d *hashDB) Stats() (Stats, error) {
	h, err := d.Heatmap()
	if err != nil {
		return Stats{}, err
	}
	c := d.Pool().Counters()
	hs := &HashStats{
		Buckets:       h.Buckets,
		OverflowPages: h.OverflowPages,
		BigPairPages:  h.BigPairPages,
		BitmapPages:   h.BitmapPages,
		MaxChain:      h.MaxChain + 1, // in pages, the primary included
		ChainDist:     h.ChainDist,
		AvgFill:       h.AvgFill,
		EmptyBuckets:  h.EmptyBuckets,
		Counts:        d.Counts(),
	}
	hs.setFilterRate()
	hs.WalLSN, _ = d.Stamp()
	hs.WalAppliedLSN = d.AppliedLSN()
	if o := d.Log(); o != nil {
		hs.setLog(o)
	}
	return Stats{
		Method:        Hash,
		Keys:          h.NKeys,
		Pages:         int64(d.Store().NPages()),
		PageSize:      d.Store().PageSize(),
		CacheHits:     c.Hits,
		CacheMisses:   c.Misses,
		CacheHitRatio: c.HitRatio(),
		Hash:          hs,
	}, nil
}

// setLog fills h's log figures from the log's owner — once per log, so
// a sharded database's aggregate carries them and its shards do not.
func (h *HashStats) setLog(o *wal.Owner) {
	ws := o.Log().Stats()
	h.WalAppends, h.WalFsyncs, h.WalFsyncJoins = ws.Appends, ws.Fsyncs, ws.FsyncJoins
	h.WalAppendedBytes = ws.AppendedBytes
	h.TxnCommits = o.Commits()
	h.WalLastLSN = o.Log().LastLSN()
	if h.WalLastLSN > h.WalLSN {
		h.WalCheckpointLag = h.WalLastLSN - h.WalLSN
	}
}

// setFilterRate derives the filter hit rate from h's counts (zero
// consults yields zero).
func (h *HashStats) setFilterRate() {
	if t := h.FilterSkips + h.FilterHits + h.FilterFalsePositives; t > 0 {
		h.FilterHitRate = float64(h.FilterSkips) / float64(t)
	}
}

// Static interface checks.
var (
	_ DB     = (*hashDB)(nil)
	_ Cursor = (*core.Iterator)(nil)
)
