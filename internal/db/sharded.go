package db

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"unixhash/internal/core"
	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
	"unixhash/internal/trace"
	"unixhash/internal/wal"
)

// Sharded is a hash database partitioned into N shards: every shard is
// its own hash table with its own buffer pool, lock hierarchy and
// (file-backed) page file, and every key is routed to exactly one shard
// by an independent 64-bit hash. Whole-table exclusive sections —
// PutBatch's single-lock epoch, Sync's two-phase flush, a split pass —
// therefore run in parallel across shards, multiplying the single-table
// write throughput for a multi-client load (the dbserver front end is the
// intended driver).
//
// What the shards do share is the write-ahead log: one wal.Log per
// database (dir/wal; a memory device when dir is empty), owned by the
// Sharded, not by any table — one append and one group fsync per
// transaction, whatever shards it touches (sharded_log.go, DESIGN.md §12).
//
// Sharded implements DB, so everything written against the uniform
// interface (CLIs, the network server, ServeTelemetry) works unchanged.
// Every shard exports its metrics into one shared registry — same-named
// series aggregate (see internal/metrics) — so a sharded database
// publishes a single /metrics page.
//
// Cross-shard semantics, where they differ from a single table:
//
//   - Begin returns a transaction that is atomic across shards: after a
//     power cut either every key of a committed transaction is there or
//     none is, on every shard (one commit frame in the one log).
//   - Sync is a database-wide checkpoint: it waits out in-flight commits,
//     flushes every shard stamping the same LSN, then truncates the log.
//   - Seq yields shard 0's pairs, then shard 1's, and so on; within a
//     shard the usual bucket order applies.
type Sharded struct {
	owner    *os.File // dir/SHARDS, locked while the database is open; nil when memory-resident
	shards   []*hashDB
	reg      *metrics.Registry
	tr       *trace.Tracer // cfg.Hash.Trace: every shard's and the log's; nil when off
	readonly bool

	// log is the directory log, nil when the database was opened without
	// logging (Begin then reports core.ErrNoWAL). ownLog records that
	// Close must close its device. commits counts wire transactions in
	// the shared registry (the shards do not count their subsets).
	log     *wal.Log
	ownLog  bool
	commits *metrics.Counter

	// ckpt orders commits against checkpoints: a commit holds it shared
	// from its log append until its last shard has applied, Sync and Close
	// hold it exclusively — so when a checkpoint reads the log's last LSN,
	// every commit at or below it is in the shards' memory, and Log.Reset
	// never runs with a commit in flight. It ranks above every table lock.
	ckpt    sync.RWMutex
	closed  bool          // guarded by ckpt
	ckptLSN atomic.Uint64 // LSN of the last completed checkpoint
	// damaged poisons the commit path after a failed append, fsync or
	// apply: the log may hold a commit that was never acknowledged or only
	// partly applied, so commits are refused and the log is kept as it is
	// until a reopen replays it.
	damaged atomic.Pointer[error]
}

// MaxShards bounds OpenSharded's shard count. Each shard costs a buffer
// pool, a page file and, past the first, a goroutine per Sync or Close
// (fanOut); past a few dozen shards the returns are already gone.
const MaxShards = 1024

// ErrShardMismatch reports opening a sharded directory with a different
// shard count than it was created with — routing would silently send
// keys to the wrong shard, so the open fails loudly instead.
var ErrShardMismatch = errors.New("db: shard count does not match directory")

// shardMarker is the file recording a sharded directory's shard count.
const shardMarker = "SHARDS"

// OpenSharded opens (or creates) a hash database of nshards shards. An
// empty dir is memory-resident, like Open; otherwise dir is created if
// needed, shard i lives in dir/shard-NNN.db and — when cfg enables
// logging (WAL or WALDevice, the latter naming the one log's device) or
// the directory already has one — the log in dir/wal. Only the Hash
// config is consulted; its options apply to each shard individually
// (CacheSize budgets one shard's pool; Nelem is split across shards). A
// shared metrics registry is used for every shard — the caller's
// cfg.Hash.Metrics if set, else a private one — so the database reports
// one aggregated /metrics view, and cfg.Hash.Trace, if set, is the one
// ring every shard and the log emit into. An option that cannot be
// sharded (Store) is rejected.
//
// A directory has one owner: while it is open, another open fails with
// pagefile.ErrLocked naming it (read-only opens share it). A directory
// that was not closed cleanly — a dirty shard, or committed transactions
// in the log that a shard's pages do not yet hold — fails with
// core.ErrNeedsRecovery; RecoverSharded opens it. A directory written
// before the log moved up (per-shard shard-NNN.db.wal sidecars) is
// migrated on first writable open.
func OpenSharded(dir string, nshards int, cfg *Config) (*Sharded, error) {
	s, _, err := openSharded(dir, nshards, cfg, nil, false)
	return s, err
}

// own locks dir, on its SHARDS marker (shared if readonly), before anything
// else there is touched, then checks nshards against the marker or writes it.
func (s *Sharded) own(dir string, nshards int) (err error) {
	flag := os.O_RDWR | os.O_CREATE
	if s.readonly {
		flag = os.O_RDONLY
	}
	if s.owner, err = os.OpenFile(filepath.Join(dir, shardMarker), flag, 0o666); err != nil {
		return fmt.Errorf("db: sharded open: %w", err)
	}
	var raw []byte
	if err = pagefile.Flock(s.owner, dir, !s.readonly); err == nil {
		raw, err = io.ReadAll(s.owner)
	}
	have, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
	switch {
	case err != nil:
	case len(raw) == 0:
		_, err = s.owner.WriteString(strconv.Itoa(nshards) + "\n")
	case perr != nil:
		err = fmt.Errorf("db: sharded open: %s: unparseable shard marker %q", s.owner.Name(), raw)
	case have != nshards:
		err = fmt.Errorf("%w: %s was created with %d shards, opened with %d", ErrShardMismatch, dir, have, nshards)
	}
	return err
}

// shardOf routes a key to its shard: a 64-bit FNV-1a digest finished
// with a murmur-style avalanche, reduced mod N. The router is
// deliberately independent of the tables' own 32-bit hash — a shard's
// table still spreads its keys across all of its buckets even though
// they share a routing residue.
func shardOf(key []byte, n int) int {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211 // FNV-64 prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

func (s *Sharded) shard(key []byte) *hashDB {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[shardOf(key, len(s.shards))]
}

// NShards reports the shard count.
func (s *Sharded) NShards() int { return len(s.shards) }

// MetricsRegistry exposes the registry every shard aggregates into,
// for callers (the network server) that want to publish their own
// series on the same page.
func (s *Sharded) MetricsRegistry() *metrics.Registry { return s.reg }

// The plain DB methods are the ledger-carrying forms (oplog.go) with
// attribution off.
func (s *Sharded) Get(key []byte) ([]byte, error)         { return s.GetBufOp(nil, key, nil) }
func (s *Sharded) GetBuf(key, dst []byte) ([]byte, error) { return s.GetBufOp(nil, key, dst) }
func (s *Sharded) Put(key, data []byte) error             { return s.PutOp(nil, key, data) }
func (s *Sharded) PutNew(key, data []byte) error          { return s.shard(key).PutNew(key, data) }
func (s *Sharded) Delete(key []byte) error                { return s.DeleteOp(nil, key) }

// splitByShard partitions items by the shard their key routes to,
// preserving order within each shard.
func splitByShard[T any](items []T, n int, key func(T) []byte) [][]T {
	if n == 1 {
		return [][]T{items}
	}
	per := make([][]T, n)
	for _, it := range items {
		i := shardOf(key(it), n)
		per[i] = append(per[i], it)
	}
	return per
}

func pairKey(p Pair) []byte  { return p.Key }
func opKey(op wal.Op) []byte { return op.Key }

// PutBatch applies a batch whose keys all route to one shard on the
// calling goroutine; one that spans shards is partitioned and fanned out,
// one PutBatch (one latch epoch, one deferred split pass) per involved
// shard. In-batch last-wins dedupe holds: a duplicate key lands in one
// shard, where the table's own batch dedupe applies.
func (s *Sharded) PutBatch(pairs []Pair) error { return s.PutBatchOp(nil, pairs) }

// fanOut runs fn on every shard that has work (busy(i); nil means all
// do) and joins the errors in shard order, each naming its shard. The
// caller runs the first busy shard itself, after starting a goroutine for
// each further one: an idle shard costs nothing.
func (s *Sharded) fanOut(busy func(i int) bool, fn func(i int, sh *hashDB) error) error {
	errs := make([]error, len(s.shards))
	run := func(i int) {
		if err := fn(i, s.shards[i]); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	var wg sync.WaitGroup
	first := -1
	for i := range s.shards {
		switch {
		case busy != nil && !busy(i):
		case first < 0:
			first = i
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(i)
			}()
		}
	}
	if first >= 0 {
		run(first)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Sync flushes every shard to stable storage, concurrently. With a log
// it is the database's checkpoint (see checkpointLocked).
func (s *Sharded) Sync() error {
	if s.log == nil || s.readonly {
		return s.fanOut(nil, func(_ int, sh *hashDB) error { return sh.Sync() })
	}
	s.ckpt.Lock()
	defer s.ckpt.Unlock()
	if s.closed {
		return core.ErrClosed
	}
	return s.checkpointLocked(false)
}

// Close checkpoints (so a graceful stop leaves the log at header size)
// and closes every shard — all of them, even if one fails — then the log.
func (s *Sharded) Close() error {
	s.ckpt.Lock()
	defer s.ckpt.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.log != nil && !s.readonly {
		err = s.checkpointLocked(false)
	}
	return errors.Join(err, s.closeFiles())
}

// Len sums the shards' pair counts.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Seq iterates shard 0's pairs, then shard 1's, and so on.
func (s *Sharded) Seq() Cursor { return &shardedCursor{s: s} }

type shardedCursor struct {
	s   *Sharded
	i   int
	cur Cursor
	err error
}

func (c *shardedCursor) Next() bool {
	if c.err != nil {
		return false
	}
	for {
		if c.cur == nil {
			if c.i >= len(c.s.shards) {
				return false
			}
			c.cur = c.s.shards[c.i].Seq()
			c.i++
		}
		if c.cur.Next() {
			return true
		}
		if err := c.cur.Err(); err != nil {
			c.err = err
			return false
		}
		c.cur = nil
	}
}

func (c *shardedCursor) Key() []byte {
	if c.cur == nil {
		return nil
	}
	return c.cur.Key()
}

func (c *shardedCursor) Value() []byte {
	if c.cur == nil {
		return nil
	}
	return c.cur.Value()
}

func (c *shardedCursor) Err() error { return c.err }

// Stats aggregates every shard into the uniform totals and attaches the
// per-shard breakdown in Shards. The operation counters (Gets, Puts,
// TxnCommits, ...) live in the registry all shards share, so one
// snapshot, taken after the walks, is the database total that the
// aggregate and every shard's entry carry; the shape figures (buckets,
// chains, fill) are summed. The log is the database's, so its figures
// appear in the aggregate only: a shard reports its own checkpoint stamp
// and applied LSN and no log I/O.
func (s *Sharded) Stats() (Stats, error) {
	agg := Stats{Method: Hash, Shards: make([]Stats, 0, len(s.shards))}
	for _, sh := range s.shards {
		st, err := sh.shape()
		if err != nil {
			return Stats{}, err
		}
		agg.Keys += st.Keys
		agg.Pages += st.Pages
		agg.PageSize = st.PageSize
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		if agg.Hash == nil {
			h := *st.Hash
			h.ChainDist = append([]int(nil), h.ChainDist...)
			h.AvgFill *= float64(h.Buckets) // bucket-weighted; divided out below
			agg.Hash = &h
		} else {
			addShape(agg.Hash, st.Hash)
		}
		agg.Shards = append(agg.Shards, st)
	}
	if t := agg.CacheHits + agg.CacheMisses; t > 0 {
		agg.CacheHitRatio = float64(agg.CacheHits) / float64(t)
	}
	h := agg.Hash
	if h.Buckets > 0 {
		h.AvgFill /= float64(h.Buckets)
	}
	snap := s.reg.Snapshot()
	h.setCounters(snap)
	for _, st := range agg.Shards {
		st.Hash.setCounters(snap)
	}
	if s.log != nil {
		ws := s.log.Stats()
		h.WalAppends, h.WalFsyncs, h.WalFsyncJoins = ws.Appends, ws.Fsyncs, ws.FsyncJoins
		h.WalAppendedBytes, h.WalIOTimeNS = ws.AppendedBytes, int64(ws.IOTime)
		h.WalLSN, h.WalLastLSN = s.ckptLSN.Load(), s.log.LastLSN()
		if h.WalLastLSN > h.WalLSN {
			h.WalCheckpointLag = h.WalLastLSN - h.WalLSN
		}
	}
	return agg, nil
}

// addShape folds one more shard's table shape into the aggregate: sums,
// except MaxChain (max), ChainDist (elementwise), AvgFill (accumulated
// bucket-weighted) and WalAppliedLSN (the furthest shard).
func addShape(agg, sh *HashStats) {
	agg.AvgFill += sh.AvgFill * float64(sh.Buckets)
	agg.Buckets += sh.Buckets
	agg.OverflowPages += sh.OverflowPages
	agg.BigPairPages += sh.BigPairPages
	agg.BitmapPages += sh.BitmapPages
	agg.EmptyBuckets += sh.EmptyBuckets
	agg.MaxChain = max(agg.MaxChain, sh.MaxChain)
	for len(agg.ChainDist) < len(sh.ChainDist) {
		agg.ChainDist = append(agg.ChainDist, 0)
	}
	for i, n := range sh.ChainDist {
		agg.ChainDist[i] += n
	}
	agg.WalAppliedLSN = max(agg.WalAppliedLSN, sh.WalAppliedLSN)
}

// Begin starts a transaction over the whole database. Ops buffer in the
// transaction; Commit appends all of them under one commit frame to the
// one log, fsyncs once (sharing the fsync with concurrent committers on
// any shards), and then applies each shard's subset under that shard's
// bucket latches. The commit is atomic across shards for durability —
// after a crash all of its keys are there or none — and atomic per shard
// for visibility: a concurrent reader may see one shard's part a moment
// before another's.
func (s *Sharded) Begin() (Txn, error) { return s.BeginOp(nil) }

type shardedTxn struct {
	s    *Sharded
	ops  []wal.Op
	led  *oplog.Ledger
	done bool
}

func (x *shardedTxn) buffer(op wal.Op) error {
	if x.done {
		return core.ErrTxnDone
	}
	if len(op.Key) == 0 {
		return core.ErrEmptyKey
	}
	x.ops = append(x.ops, op)
	return nil
}

func (x *shardedTxn) Put(key, data []byte) error {
	return x.buffer(wal.Op{Key: append([]byte(nil), key...), Data: append([]byte(nil), data...)})
}

func (x *shardedTxn) Delete(key []byte) error {
	return x.buffer(wal.Op{Delete: true, Key: append([]byte(nil), key...)})
}

func (x *shardedTxn) Rollback() error {
	if x.done {
		return core.ErrTxnDone
	}
	x.done, x.ops = true, nil
	return nil
}

// Commit makes the transaction durable, then visible. A log failure
// (append or fsync) acknowledges nothing and applies nothing; an apply
// failure leaves a durable commit partly visible. Either way the
// database refuses further commits until it is reopened, because the log
// now holds something the live shards do not agree with.
func (x *shardedTxn) Commit() error {
	if x.done {
		return core.ErrTxnDone
	}
	x.done = true
	if len(x.ops) == 0 {
		return nil
	}
	s, led := x.s, x.led
	s.ckpt.RLock()
	defer s.ckpt.RUnlock()
	if err := s.commitReady(); err != nil {
		return err
	}
	seq0 := s.tr.Next()
	defer func() { led.SetTraceSpan(seq0, s.tr.Next()) }()
	lsn, end, err := s.log.AppendOp(led, x.ops)
	if err == nil {
		err = s.log.SyncToOp(led, end)
	}
	if err != nil {
		return s.poison(fmt.Errorf("db: sharded commit: log: %w", err))
	}
	per := splitByShard(x.ops, len(s.shards), opKey)
	led.Count(oplog.PhaseRoute)
	for i, ops := range per {
		if len(ops) == 0 {
			continue
		}
		if err := s.shards[i].t.ApplyCommitted(led, lsn, ops); err != nil {
			return s.poison(fmt.Errorf("db: sharded commit: shard %d: %w", i, err))
		}
	}
	s.commits.Inc()
	return nil
}

// shardKeys reports how an example key set distributes over n shards —
// a test hook kept close to shardOf so the router and its distribution
// check cannot drift apart.
func shardKeys(keys [][]byte, n int) []int {
	counts := make([]int, n)
	for _, k := range keys {
		counts[shardOf(k, n)]++
	}
	sort.Ints(counts)
	return counts
}

// Static interface checks.
var (
	_ DB     = (*Sharded)(nil)
	_ Txn    = (*shardedTxn)(nil)
	_ Cursor = (*shardedCursor)(nil)
)
