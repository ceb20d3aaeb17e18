package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"unixhash/internal/buffer"
	"unixhash/internal/hashfunc"
	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
	"unixhash/internal/trace"
	"unixhash/internal/wal"
)

// Options parameterizes a hash table at creation time, mirroring the
// paper's create interface: bucket size, fill factor, the expected final
// number of elements, the number of bytes of main memory used for
// caching, and a user-defined hash function.
type Options struct {
	// Bsize is the bucket (page) size in bytes; power of two in
	// [MinBsize, MaxBsize]. Default 256.
	Bsize int
	// Ffactor is the desired density: the approximate number of keys
	// allowed to accumulate in one bucket before the table grows.
	// Default 8. The paper's guidance: (avgPairLen+4)*ffactor >= bsize.
	Ffactor int
	// Nelem estimates the final number of elements. When given, keys
	// hash into a full-sized table immediately instead of growing it
	// from a single bucket. Default 1.
	Nelem int
	// CacheSize is the buffer pool budget in bytes. Default 64 KB.
	CacheSize int
	// Hash overrides the built-in hash function. A table remembers a
	// check hash so that reopening it with a different function fails
	// with ErrHashMismatch.
	Hash hashfunc.Func
	// ReadOnly opens an existing table for reading only.
	ReadOnly bool
	// AllowDirty opens a file whose dirty flag is set (a crashed or
	// still-open table) without recovery, for inspection tools. Without
	// it, Open fails with ErrNeedsRecovery; see Recover.
	AllowDirty bool
	// Store overrides the backing store (for tests, fault injection and
	// benchmarks with simulated disks). The caller retains ownership:
	// Close leaves it open. When set, the path argument is ignored.
	Store pagefile.Store
	// Cost is the simulated I/O cost model for stores the table creates
	// itself. Zero means no simulated cost.
	Cost pagefile.CostModel
	// ControlledOnly disables uncontrolled (overflow-triggered) splits,
	// leaving only the fill-factor policy — dynahash's behaviour. It
	// exists for the ablation benchmarks of the paper's hybrid split
	// policy and is not part of the original interface.
	ControlledOnly bool
	// Lock takes an advisory whole-file lock on file-backed tables:
	// shared for read-only opens, exclusive otherwise. Open fails with
	// pagefile.ErrLocked if another process holds a conflicting lock.
	// This implements the multi-user access the paper's conclusion says
	// "could be incorporated relatively easily".
	Lock bool
	// Metrics is the registry the table exports its observability series
	// into (hash_*, buffer_*, pagefile_*; see DESIGN.md). Nil creates a
	// private registry — instrumentation is always on; the option only
	// decides who else can read it. Sharing one registry between tables
	// (e.g. the shards of a db.Sharded) aggregates same-named series:
	// plain counters share one cell, and computed collectors and
	// histograms are summed across every registrant at read time.
	Metrics *metrics.Registry
	// Trace, when set, receives structured events (splits, overflow page
	// traffic, sync phases, recovery steps, batch phases, buffer
	// evictions, slow device I/O); the ledger-carrying entry points note
	// its ring position around each call. Nil disables tracing entirely:
	// the instrumented paths pay one pointer comparison and nothing else
	// — no atomics, no allocation (enforced by
	// TestTraceDisabledZeroAlloc). See internal/trace and DESIGN.md §11.
	Trace *trace.Tracer
	// WAL attaches a write-ahead redo log to the table and enables the
	// Begin/Commit transaction API (see Table.Begin): a committed
	// transaction is durable after one sequential log append plus one log
	// fsync, instead of a full two-phase Sync. Sync becomes a checkpoint —
	// it flushes the pages as before, stamps the applied LSN in the
	// header, and truncates the log. Plain Put/Delete remain
	// volatile-until-checkpoint exactly as without the option. File-backed
	// tables keep the log in a sibling "<path>.wal" file; memory tables
	// use an in-memory device.
	WAL bool
	// WALDevice overrides the log device (tests, crash simulation,
	// benchmarks). Implies WAL. The caller retains ownership: Close
	// leaves the device open.
	WALDevice wal.Device
	// SharedLog attaches the table to a write-ahead log its caller owns
	// and shares between tables. It is the seam db.Sharded is built on and
	// has no other user: the owner appends and fsyncs one commit covering
	// several tables, then hands each table its ops through ApplyCommitted;
	// at a checkpoint it quiesces its committers, stamps one LSN into
	// every table with Checkpoint, and only then resets the log. The table
	// therefore never appends to, scans, resets or closes the log itself,
	// Begin refuses with ErrSharedLog, and Sync flushes pages without
	// moving the header's checkpoint LSN. Overrides WAL and WALDevice.
	SharedLog *wal.Log
	// DisableFilter stops reads from consulting the per-bucket tag
	// filters (see filter.go). The filter bytes are still maintained by
	// every write — they are persistent page state, and a table mutated
	// with filters off must still answer correctly when reopened without
	// the option — so this only removes the read-side consult. It exists
	// for the A/B miss benchmarks.
	DisableFilter bool
}

// Validate checks the option fields without applying defaults: a zero
// value means "use the default" and always passes. It reports the first
// offending field by name, so callers (db.Open) can surface exactly what
// was rejected instead of silently clamping.
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	if o.Bsize != 0 && (o.Bsize < MinBsize || o.Bsize > MaxBsize || !isPow2(o.Bsize)) {
		return fmt.Errorf("Bsize: %d must be a power of two in [%d, %d]", o.Bsize, MinBsize, MaxBsize)
	}
	if o.Ffactor < 0 {
		return fmt.Errorf("Ffactor: %d must not be negative", o.Ffactor)
	}
	if o.Nelem < 0 {
		return fmt.Errorf("Nelem: %d must not be negative", o.Nelem)
	}
	if o.CacheSize < 0 {
		return fmt.Errorf("CacheSize: %d must not be negative", o.CacheSize)
	}
	return nil
}

func (o *Options) withDefaults() (Options, error) {
	var opts Options
	if o != nil {
		opts = *o
	}
	if err := o.Validate(); err != nil {
		return opts, fmt.Errorf("hash: invalid option %w", err)
	}
	if opts.Bsize == 0 {
		opts.Bsize = DefaultBsize
	}
	if opts.Ffactor == 0 {
		opts.Ffactor = DefaultFfactor
	}
	if opts.Nelem == 0 {
		opts.Nelem = 1
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.Hash == nil {
		opts.Hash = hashfunc.Default
	}
	return opts, nil
}

// Table is a linear-hash table of byte-string key/data pairs. All methods
// are safe for concurrent use. Bucket-granular operations — Get, GetBuf,
// Has, Put, PutNew, Delete, PutBatch, transaction commits, Len, Heatmap
// and iteration — take the table lock shared and latch only the stripes
// covering the bucket chains they touch, so readers AND writers on
// different buckets run in parallel; a split latches its two buckets like
// any other writer (see latch.go). Whole-table operations (Sync, Close,
// Check, Recover, Geometry, the Dump walker and PutBatch's presize of an
// empty table) take the lock exclusively. The lock order is table lock
// → splitMu → bucket stripes (ascending) → ovfl/dirty mutexes → buffer
// shard lock, and never the reverse.
type Table struct {
	mu sync.RWMutex

	hdr   header
	hash  hashfunc.Func
	store pagefile.Store
	pool  *buffer.Pool

	path           string
	ownStore       bool
	readonly       bool
	closed         bool
	controlledOnly bool
	filtersOn      bool // reads consult the per-bucket tag filters

	// Bucket-granular concurrency state (see latch.go). geo publishes
	// hdr.maxBucket for shared-phase routing; stripes are the per-bucket
	// latches; splitMu admits one split at a time. nkeysA and pairSumA
	// are the live key count and pair fingerprint — hdr.nkeys/hdr.pairSum
	// hold the last-synced values between syncs and are folded from the
	// atomics by syncLocked. dirtyHdr and addedOvfl are the shared-phase
	// forms of the old exclusive-writer booleans.
	geo       atomic.Uint32
	stripes   [nStripes]sync.RWMutex
	splitMu   sync.Mutex
	nkeysA    atomic.Int64
	pairSumA  atomic.Uint64
	dirtyHdr  atomic.Bool
	addedOvfl atomic.Bool // an insert grew a chain: uncontrolled split pending

	// ovflMu serializes the overflow allocator and bitmap state (ovfl.go)
	// under concurrent bucket writers.
	ovflMu sync.Mutex

	// dirtyMarked records that the on-disk header carries the dirty flag:
	// it is set by markDirty before the first mutation after an open or
	// sync, and cleared when a sync durably writes a clean header. While
	// it is set, further mutations need no header write — the file is
	// already marked (one atomic load on the write path). dirtyMu
	// serializes the slow path, which is the only place a shared-phase
	// writer encodes the header: safe precisely because every mutation is
	// preceded by markDirty, so when the slow path runs, nothing has
	// mutated since the last sync and the header image is the last-synced
	// one. See the Durability model section of DESIGN.md.
	dirtyMarked atomic.Bool
	dirtyMu     sync.Mutex

	// needsRecovery is set when an existing file is opened with its dirty
	// flag set (AllowDirty). Until Recover clears it, the table is
	// inspection-only: mutations and syncs fail with ErrNeedsRecovery, and
	// Close must not stamp a clean header over an unrecovered file.
	needsRecovery bool

	// Bitmap pages are owned by the table, outside the LRU pool. They are
	// touched by the allocator and the dump/recovery walkers, under
	// ovflMu (shared phase) or the exclusive table lock.
	bitmapBuf   [maxSplits][]byte
	bitmapDirty [maxSplits]bool
	freeCount   [maxSplits]int

	// scratch recycles page-sized buffers for big-pair chain I/O; each
	// operation takes its own so concurrent readers never share one.
	scratch sync.Pool

	// Write-ahead log state (Options.WAL). appliedLSN is the commit LSN
	// of the last transaction whose effects are in the table (memory or
	// pages); syncLocked folds it into hdr.walLSN at checkpoint.
	// walPending holds committed-but-unapplied transactions found in the
	// log at open; Recover replays them. walOwnDev records that Close
	// must close the device. walErr poisons the transaction path after a
	// commit applied only partially (see Txn.Commit).
	wal        *wal.Log
	walOwnDev  bool
	walShared  bool // wal is Options.SharedLog: the caller's, never reset or closed here
	appliedLSN atomic.Uint64
	walPending []wal.Txn
	walErrMu   sync.Mutex
	walErr     error

	// m holds the table's resolved metric handles (see metrics.go). All
	// structural counters live here.
	m tableMetrics

	// tr is the structured event tracer (Options.Trace); nil disables
	// tracing. Set in Open before the table is published, never changed.
	tr *trace.Tracer
}

// Open opens or creates the hash table at path. An empty path creates a
// purely memory-resident table (the hsearch replacement mode); it behaves
// identically but is discarded on Close.
func Open(path string, o *Options) (*Table, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}

	t := &Table{hash: opts.Hash, path: path, readonly: opts.ReadOnly, controlledOnly: opts.ControlledOnly, tr: opts.Trace,
		filtersOn: !opts.DisableFilter}

	existing := false
	switch {
	case opts.Store != nil:
		t.store = opts.Store
		existing = t.store.NPages() > 0
	case path == "":
		t.store = pagefile.NewMem(opts.Bsize, opts.Cost)
		t.ownStore = true
	default:
		bsize, exists, err := peekBsize(path)
		if err != nil {
			return nil, err
		}
		if exists {
			existing = true
		} else {
			bsize = opts.Bsize
			if opts.ReadOnly {
				return nil, fmt.Errorf("hash: %s: %w", path, os.ErrNotExist)
			}
		}
		fs, err := pagefile.OpenFile(path, bsize, opts.Cost)
		if err != nil {
			return nil, err
		}
		if opts.Lock {
			if err := fs.Lock(!opts.ReadOnly); err != nil {
				fs.Close()
				return nil, err
			}
		}
		t.store = fs
		t.ownStore = true
	}

	if existing {
		err = t.readHeader()
		if err == nil && t.hdr.dirty() {
			// The last writer crashed (or is still live) between marking
			// the file dirty and completing a sync: the pages may not
			// reproduce the last-synced state. Refuse unless the caller
			// explicitly tolerates it (inspection tools, Recover).
			if !opts.AllowDirty {
				err = fmt.Errorf("hash: %s: %w", path, ErrNeedsRecovery)
			}
			t.dirtyMarked.Store(true)
			t.needsRecovery = true
		}
	} else {
		err = t.initHeader(opts)
	}
	if err != nil {
		if t.ownStore {
			t.store.Close()
		}
		return nil, err
	}
	// Seed the shared-phase routing and accounting atomics from the
	// freshly loaded header.
	t.publishGeo()
	t.nkeysA.Store(t.hdr.nkeys)
	t.pairSumA.Store(t.hdr.pairSum)

	// The hdrWAL flag (stamped durably at the first writable WAL attach,
	// before any commit can be acknowledged) proves this table is
	// WAL-managed: opening it without its log would silently roll back
	// every commit since the last checkpoint — including commits made
	// before the *first* checkpoint, when walLSN is still zero.
	// Path-backed tables auto-attach the sidecar log; a store-backed
	// table needs its device handed in. walLSN != 0 is kept as a belt
	// for pre-flag files. hdrSharedLog says the same about a log this
	// table cannot find by itself.
	switch {
	case opts.SharedLog != nil:
		err = t.attachSharedLog(opts.SharedLog)
	case t.hdr.flags&hdrSharedLog != 0:
		err = fmt.Errorf("hash: %s is one shard of a sharded database and its commits live in that directory's log; open the directory %s instead (dbserver -dir, db.OpenSharded): %w",
			path, filepath.Dir(path), ErrSharedLog)
	case opts.WAL || opts.WALDevice != nil:
		err = t.openWAL(&opts)
	case t.hdr.flags&hdrWAL != 0 || t.hdr.walLSN != 0:
		if t.path == "" {
			err = fmt.Errorf("hash: table is wal-managed (checkpoint %d) but no log device was provided: %w",
				t.hdr.walLSN, ErrUnrecoverable)
			break
		}
		opts.WAL = true
		err = t.openWAL(&opts)
	}
	if err != nil {
		t.closeWAL()
		if t.ownStore {
			t.store.Close()
		}
		return nil, err
	}

	t.scratch.New = func() any { return make([]byte, t.hdr.bsize) }
	cfg := buffer.Config{OnLoad: onPageLoad}
	if t.tr != nil {
		// The eviction hook exists only when tracing is on, so a disabled
		// tracer costs the pool nothing — not even a nil-func check that
		// the compiler can't elide.
		cfg.OnEvict = func(a buffer.Addr, dirty bool) {
			t.tr.Emit(trace.EvBufEvict, uint64(a.N), boolArg(a.Ovfl), boolArg(dirty), 0)
		}
	}
	t.pool = buffer.NewConfig(t.store, opts.CacheSize, func(a buffer.Addr) uint32 {
		if a.Ovfl {
			return t.hdr.oaddrToPage(oaddr(a.N))
		}
		return t.hdr.bucketToPage(a.N)
	}, cfg)

	// Resolve the metric handles and let the layers below export their
	// series into the same registry.
	t.m.init(opts.Metrics)
	t.pool.RegisterMetrics(t.m.reg, "buffer_")
	t.store.Stats().Register(t.m.reg, "pagefile_")
	if t.wal != nil && !t.walShared {
		t.wal.RegisterMetrics(t.m.reg)
	}
	t.m.setShape(t.hdr.nkeys, t.hdr.maxBucket)
	if t.tr != nil {
		t.store.Stats().SetTrace(t.tr)
	}
	return t, nil
}

// openWAL attaches the write-ahead log: it opens (or creates) the device,
// scans it for committed transactions, and reconciles the log against the
// header's checkpoint LSN. Commits past the checkpoint have not reached
// the pages — the table then needs Recover, exactly like a dirty header.
// Called from Open with the table not yet published; the caller cleans up
// via closeWAL on error.
func (t *Table) openWAL(opts *Options) error {
	dev := opts.WALDevice
	switch {
	case dev != nil:
		// Caller-owned device.
	case t.path == "":
		dev = wal.NewMemDevice()
		t.walOwnDev = true
	default:
		fd, err := wal.OpenFileDevice(t.path + ".wal")
		if err != nil {
			return fmt.Errorf("hash: open wal: %w", err)
		}
		dev = fd
		t.walOwnDev = true
	}
	l, sr, err := wal.Open(dev, wal.CostModel{}, t.tr)
	if err != nil {
		if t.walOwnDev {
			dev.Close()
		}
		t.walOwnDev = false
		return fmt.Errorf("hash: open wal: %w", err)
	}
	t.wal = l
	t.appliedLSN.Store(t.hdr.walLSN)
	l.EnsureLSN(t.hdr.walLSN)

	if sr.HeaderOK && (sr.Epoch > t.hdr.syncEpoch || sr.CheckpointLSN > t.hdr.walLSN) {
		// The log claims a checkpoint the table never took: the table file
		// was replaced or rolled back underneath its log. No automatic
		// answer is safe here.
		return fmt.Errorf("hash: %w: wal is ahead of the table (log epoch %d lsn %d, table epoch %d lsn %d)",
			ErrUnrecoverable, sr.Epoch, sr.CheckpointLSN, t.hdr.syncEpoch, t.hdr.walLSN)
	}
	// Stamp the table as WAL-managed before any commit can be
	// acknowledged, so even a crash before the first checkpoint (walLSN
	// still zero) leaves a header that proves a log exists and must be
	// consulted at the next open.
	if !t.readonly && t.hdr.flags&hdrWAL == 0 {
		t.hdr.flags |= hdrWAL
		if err := t.writeHeader(t.hdr.dirty()); err != nil {
			return err
		}
		if err := t.store.Sync(); err != nil {
			return fmt.Errorf("hash: stamp wal flag: %w", err)
		}
	}
	// Committed transactions past the header's checkpoint LSN are durable
	// in the log but not in the pages. Stale ones (at or below the
	// checkpoint) are already folded in and are skipped.
	for _, tx := range sr.Txns {
		if tx.LSN > t.hdr.walLSN {
			t.walPending = append(t.walPending, tx)
		}
	}
	if len(t.walPending) > 0 {
		// Replay happens in Recover, not here: it needs the recovery gate
		// to bless the page state first. A clean header still means the
		// pages hold exactly the checkpoint state (markDirty precedes any
		// page write), so the gate passes trivially there.
		t.needsRecovery = true
		if !opts.AllowDirty {
			return fmt.Errorf("hash: %s: unapplied wal commits: %w", t.path, ErrNeedsRecovery)
		}
		return nil
	}
	if !t.readonly && !t.needsRecovery &&
		(!sr.HeaderOK || sr.Torn || sr.LastLSN != 0 || sr.CheckpointLSN != t.hdr.walLSN || sr.Epoch != t.hdr.syncEpoch) {
		// No pending commits but the log is fresh, stale or torn:
		// normalize it so the next commit appends to a clean file.
		if err := t.wal.Reset(t.hdr.walLSN, t.hdr.syncEpoch); err != nil {
			return fmt.Errorf("hash: reset wal: %w", err)
		}
	}
	return nil
}

// attachSharedLog is openWAL for Options.SharedLog: the owner has opened
// and scanned the log and replays it itself, so the table only adopts the
// handle and durably stamps hdrSharedLog (replacing a legacy hdrWAL — the
// owner drains and removes a sidecar before it attaches the shared log).
func (t *Table) attachSharedLog(l *wal.Log) error {
	t.wal, t.walShared = l, true
	t.appliedLSN.Store(t.hdr.walLSN)
	if !t.readonly && t.hdr.flags&(hdrWAL|hdrSharedLog) != hdrSharedLog {
		t.hdr.flags = t.hdr.flags&^hdrWAL | hdrSharedLog
		if err := t.writeHeader(t.hdr.dirty()); err != nil {
			return err
		}
		if err := t.store.Sync(); err != nil {
			return fmt.Errorf("hash: stamp shared-log flag: %w", err)
		}
	}
	return nil
}

// closeWAL closes the log device if the table owns it.
func (t *Table) closeWAL() {
	if t.wal != nil && t.walOwnDev {
		_ = t.wal.Close()
	}
	t.wal = nil
	t.walOwnDev = false
}

// boolArg renders a bool as a trace event argument.
func boolArg(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// onPageLoad runs under the shard lock whenever the pool faults a page
// in. A primary page that has never been written (all zeros — a fresh
// create, or a hole in a pre-sized table) is formatted here, exactly
// once, so concurrent readers never race to initialize it.
func onPageLoad(a buffer.Addr, pg []byte) bool {
	if a.Ovfl {
		return false // overflow pages are formatted by their allocator
	}
	if p := page(pg); p.low() == 0 {
		initPage(p)
		return true
	}
	return false
}

// getScratch borrows a page-sized buffer for big-pair chain I/O.
func (t *Table) getScratch() []byte { return t.scratch.Get().([]byte) }

func (t *Table) putScratch(buf []byte) { t.scratch.Put(buf) }

// peekBsize reads an existing file's header prefix to learn its page size
// before the page store is opened. It reports exists=false for missing or
// empty files.
func peekBsize(path string) (bsize int, exists bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	if fi.Size() == 0 {
		return 0, false, nil
	}
	buf := make([]byte, headerSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return 0, false, fmt.Errorf("hash: %s: %w", path, ErrCorrupt)
	}
	var h header
	if err := h.decode(buf); err != nil {
		return 0, false, fmt.Errorf("hash: %s: %w", path, err)
	}
	return int(h.bsize), true, nil
}

// initHeader sets up a brand-new table. If an approximation of the number
// of elements ultimately to be stored is known (Nelem), entries hash into
// the full-sized table immediately rather than growing from one bucket.
func (t *Table) initHeader(opts Options) error {
	nbuckets := nextPow2(uint32((opts.Nelem + opts.Ffactor - 1) / opts.Ffactor))
	if nbuckets < 1 {
		nbuckets = 1
	}
	h := &t.hdr
	h.lorder = lorderLittle
	h.bsize = uint32(opts.Bsize)
	h.bshift = ceilLog2(uint32(opts.Bsize))
	h.ffactor = uint32(opts.Ffactor)
	h.maxBucket = nbuckets - 1
	h.lowMask = nbuckets - 1
	h.highMask = nbuckets<<1 - 1
	h.ovflPoint = ceilLog2(nbuckets)
	h.nkeys = 0
	h.hdrPages = (uint32(headerSize) + h.bsize - 1) / h.bsize
	h.checkHash = t.hash(hashfunc.CheckKey)
	t.dirtyHdr.Store(true)
	return nil
}

// readHeader loads and verifies the header of an existing table and
// checks that the supplied hash function matches the one the table was
// created with.
func (t *Table) readHeader() error {
	ps := t.store.PageSize()
	npg := (headerSize + ps - 1) / ps
	buf := make([]byte, npg*ps)
	for i := 0; i < npg; i++ {
		if err := t.store.ReadPage(uint32(i), buf[i*ps:(i+1)*ps]); err != nil {
			return fmt.Errorf("hash: read header: %w", err)
		}
	}
	if err := t.hdr.decode(buf); err != nil {
		return err
	}
	if int(t.hdr.bsize) != ps {
		return fmt.Errorf("%w: store page size %d != header bucket size %d", ErrCorrupt, ps, t.hdr.bsize)
	}
	if t.hash(hashfunc.CheckKey) != t.hdr.checkHash {
		return ErrHashMismatch
	}
	return nil
}

// writeHeader encodes the header with the given dirty flag and writes its
// pages. It deliberately does not touch t.dirtyHdr — only a completed
// two-phase sync may declare the in-memory header persisted.
func (t *Table) writeHeader(dirty bool) error {
	if dirty {
		t.hdr.flags |= hdrDirty
	} else {
		t.hdr.flags &^= hdrDirty
	}
	ps := int(t.hdr.bsize)
	npg := int(t.hdr.hdrPages)
	buf := make([]byte, npg*ps)
	t.hdr.encode(buf)
	for i := 0; i < npg; i++ {
		if err := t.store.WritePage(uint32(i), buf[i*ps:(i+1)*ps]); err != nil {
			return fmt.Errorf("hash: write header: %w", err)
		}
	}
	return nil
}

// markDirty durably sets the file's dirty flag before the first mutation
// after an open or sync. At that moment the in-memory header still
// equals the last-synced header — every mutation path calls markDirty
// before touching anything, live counters live in the atomics rather
// than the header, and geometry only moves after an earlier mutation
// already marked the file — so the on-disk dirty header records exactly
// the last-synced geometry, key count and pair checksum, which is what
// recovery verifies against. While dirtyMarked is set this is one atomic
// load, so steady-state writes pay nothing; concurrent first-writers
// serialize on dirtyMu and all but one find the flag already set.
func (t *Table) markDirty() error {
	if t.dirtyMarked.Load() {
		return nil
	}
	t.dirtyMu.Lock()
	defer t.dirtyMu.Unlock()
	if t.dirtyMarked.Load() {
		return nil
	}
	if err := t.writeHeader(true); err != nil {
		return err
	}
	if err := t.store.Sync(); err != nil {
		return err
	}
	t.dirtyMarked.Store(true)
	return nil
}

// calcBucket implements the paper's lookup: mask the 32-bit hash value
// with the high mask; if the result exceeds the maximum bucket, remask
// with the low mask. It reads the header masks directly, so it is only
// for exclusive-lock paths (check, recovery's gate); the shared phase
// routes with routeBucket over the geo atomic instead.
func (t *Table) calcBucket(h uint32) uint32 {
	b := h & t.hdr.highMask
	if b > t.hdr.maxBucket {
		b = h & t.hdr.lowMask
	}
	return b
}

func (t *Table) bucketAddr(b uint32) buffer.Addr { return buffer.Addr{N: b} }
func ovflBufAddr(o oaddr) buffer.Addr            { return buffer.Addr{N: uint32(o), Ovfl: true} }

// getBucketPage pins the page at the head of bucket b's chain, charging
// the fetch to led (nil: uncharged). Fresh zero pages were already
// formatted by the pool's load hook.
func (t *Table) getBucketPage(led *oplog.Ledger, b uint32) (*buffer.Buf, error) {
	return t.pool.GetOp(led, t.bucketAddr(b), nil, true)
}

func (t *Table) checkOpen() error {
	if t.closed {
		return ErrClosed
	}
	return nil
}

func (t *Table) checkWritable() error {
	if t.closed {
		return ErrClosed
	}
	if t.readonly {
		return ErrReadOnly
	}
	if t.needsRecovery {
		return ErrNeedsRecovery
	}
	return nil
}

// Get returns a copy of the data stored under key, or ErrNotFound.
// Gets may run concurrently with one another and with iteration.
func (t *Table) Get(key []byte) ([]byte, error) {
	return t.GetBuf(key, nil)
}

// GetBuf is Get with a caller-supplied destination: the value is appended
// to dst[:0] and the resulting slice returned, so a reader looping over
// keys with a reused buffer performs no per-call value allocation. A nil
// dst behaves like Get.
func (t *Table) GetBuf(key, dst []byte) ([]byte, error) { return t.getBuf(key, dst, nil) }

// GetBufOp is GetBuf carrying an op ledger: latch waits, filter
// consults and buffer traffic on this lookup are charged to
// led's phases, and the ring positions before and after the call are
// noted on it so an exemplar can be joined back to its events. A nil
// ledger, like a nil tracer, costs a pointer comparison: no clock reads,
// no allocation (TestTraceDisabledZeroAlloc, TestNilLedgerZeroAlloc).
func (t *Table) GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error) {
	seq0 := t.tr.Next()
	out, err := t.getBuf(key, dst, led)
	led.SetTraceSpan(seq0, t.tr.Next())
	return out, err
}

func (t *Table) getBuf(key, dst []byte, led *oplog.Ledger) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkOpen(); err != nil {
		return nil, err
	}
	if len(key) == 0 {
		return nil, ErrEmptyKey
	}
	t.m.gets.Inc()
	h := t.hash(key)
	bucket := t.lockBucket(h, led)
	out, err := t.getFromBucket(bucket, h, key, dst, led)
	t.stripeFor(bucket).RUnlock()
	return out, err
}

// getFromBucket walks one latched bucket chain for key (h is the key's
// hash, computed once by the caller). The primary page's tag filter is
// consulted before anything else: no tag matching the hash means the key
// is definitely absent and the miss costs zero chain-page reads; exact
// position hints let the walk skip pages that cannot hold the key. Every
// chain page the walk reaches is demand-faulted through the pool. Caller
// holds the bucket's stripe shared.
func (t *Table) getFromBucket(bucket, h uint32, key, dst []byte, led *oplog.Ledger) ([]byte, error) {
	out := dst[:0]
	found := false
	filtered := false // the primary's filter was consulted
	exact := false    // ... and its position hints are trustworthy
	skipped := false  // ... and it answered "definitely absent"
	var hints uint8
	pos := -1
	err := t.walkChain(led, bucket, func(buf *buffer.Buf) (bool, error) {
		pos++
		pg := page(buf.Page)
		if pos == 0 {
			if t.filtersOn && !t.needsRecovery && !pg.fltSaturatedBit() {
				filtered = true
				exact = !pg.fltInexactBit()
				hints = pg.filterHints(h)
				led.Count(oplog.PhaseFilter)
				if hints == 0 {
					// Definitely absent: stop before any chain read.
					skipped = true
					t.m.filterSkips.Inc()
					t.tr.Emit(trace.EvFilterSkip, uint64(bucket), uint64(pg.fltChainLen()), 0, 0)
					return true, nil
				}
			}
		}
		if filtered && exact {
			hb := pos
			if hb > maxHint {
				hb = maxHint
			}
			if hints&(1<<hb) == 0 {
				// No tag points at this chain position: skip the search
				// (the page itself stays on the walk — it carries the
				// link to its successor).
				t.m.filterPageSkips.Inc()
				return false, nil
			}
		}
		var inner error
		ferr := pg.forEach(func(i int, e entry) bool {
			switch e.kind {
			case entryRegular:
				if bytes.Equal(e.key, key) {
					out = append(out, e.data...)
					found = true
					return false
				}
			case entryBig:
				eq, err := t.bigKeyEquals(e.ref, key)
				if err != nil {
					inner = err
					return false
				}
				if eq {
					out, inner = t.readBigData(e.ref, out)
					found = inner == nil
					return false
				}
			}
			return true
		})
		if ferr != nil {
			return false, ferr
		}
		if inner != nil {
			return false, inner
		}
		return found, nil
	})
	if err != nil {
		return nil, err
	}
	if !found {
		t.m.getMisses.Inc()
		if filtered && !skipped {
			// The filter said "maybe" and the chain said no.
			t.m.filterFPs.Inc()
		}
		return nil, ErrNotFound
	}
	if filtered {
		t.m.filterHits.Inc()
	}
	return out, nil
}

// Has reports whether key is present.
func (t *Table) Has(key []byte) (bool, error) {
	_, err := t.Get(key)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// walkChain pins each page of bucket's chain in order, calling fn; fn
// returns done=true to stop early. The predecessor page stays pinned
// while its successor is fetched, preserving the buffer-chain linkage.
// The walk's page fetches are charged to led (nil: uncharged; buffer
// hit/fault phases are discriminated inside the pool).
func (t *Table) walkChain(led *oplog.Ledger, bucket uint32, fn func(*buffer.Buf) (bool, error)) error {
	cur, err := t.getBucketPage(led, bucket)
	if err != nil {
		return err
	}
	// Chain metrics count only traversal past the primary page, and are
	// settled once per walk from a local tally: the no-overflow fast
	// path pays zero atomics here, and a walk that does probe overflow
	// amortizes two adds over its page fetches. Pages are added before
	// the walk is counted so a concurrent scrape never observes more
	// walks than overflow pages probed.
	ovflPages := int64(0)
	var prev *buffer.Buf
	defer func() {
		if prev != nil {
			t.pool.Put(prev)
		}
		if cur != nil {
			t.pool.Put(cur)
		}
		if ovflPages > 0 {
			t.m.chainPages.Add(ovflPages)
			t.m.chainWalks.Inc()
		}
	}()
	for {
		done, err := fn(cur)
		if err != nil || done {
			return err
		}
		next := page(cur.Page).ovflLink()
		if next == 0 {
			return nil
		}
		nb, err := t.pool.GetOp(led, ovflBufAddr(next), cur, false)
		if err != nil {
			return err
		}
		ovflPages++
		if prev != nil {
			t.pool.Put(prev)
		}
		prev, cur = cur, nb
	}
}

// Put stores data under key, replacing any existing value.
func (t *Table) Put(key, data []byte) error {
	return t.writeOne(nil, writeOp{key: key, data: data}, true)
}

// PutNew stores data under key, failing with ErrKeyExists if the key is
// already present (the ndbm DBM_INSERT behaviour).
func (t *Table) PutNew(key, data []byte) error {
	return t.writeOne(nil, writeOp{key: key, data: data}, false)
}

// PutOp is Put carrying an op ledger: latch waits, buffer traffic and
// any split this insert runs after it unlatches are charged to led's
// phases. A nil ledger is exactly Put.
func (t *Table) PutOp(led *oplog.Ledger, key, data []byte) error {
	return t.writeOne(led, writeOp{key: key, data: data}, true)
}

// Delete removes key, returning ErrNotFound if absent.
func (t *Table) Delete(key []byte) error { return t.DeleteOp(nil, key) }

// DeleteOp is Delete carrying an op ledger (see PutOp). A nil ledger
// is exactly Delete.
func (t *Table) DeleteOp(led *oplog.Ledger, key []byte) error {
	return t.writeOne(led, writeOp{key: key, del: true}, true)
}

// writeOne is Put, PutNew and Delete: a write set of one (see applySet
// in batch.go), its ring span noted on the ledger.
func (t *Table) writeOne(led *oplog.Ledger, op writeOp, replace bool) error {
	seq0 := t.tr.Next()
	err := t.applyOne(led, op, replace)
	led.SetTraceSpan(seq0, t.tr.Next())
	return err
}

func (t *Table) applyOne(led *oplog.Ledger, op writeOp, replace bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkWritable(); err != nil {
		return err
	}
	if len(op.key) == 0 {
		return ErrEmptyKey
	}
	if op.del {
		t.m.dels.Inc()
	} else {
		t.m.puts.Inc()
	}
	set := [1]writeOp{op}
	if _, err := t.applySet(set[:], replace, led); err != nil {
		return err
	}
	if _, err := t.settleSplits(led); err != nil {
		return err
	}
	if op.del && !set[0].found {
		return ErrNotFound
	}
	return nil
}

// applyBucket applies ops — all routed to one bucket, sorted by hash,
// the caller holding its stripe exclusively — in one walk of the
// bucket's chain. On each page the copies the set supersedes are removed
// first, then pending puts are packed into the space (including what the
// removals just opened); an overflow page left empty is unlinked and
// reclaimed; puts that fit nowhere go onto fresh overflow pages at the
// tail. The walk stops as soon as every op is settled. The primary page
// stays pinned throughout and every placement and removal settles its
// filter tag there in the same step, so no exit path — error paths
// included — leaves a key on the chain that the filter does not know
// (the false negative DESIGN §14 forbids).
//
// With replace false (PutNew, a set of one) nothing is written — the file
// is not even marked dirty — until the walk has proved the key absent;
// the first page with room stays pinned to take the pair.
func (t *Table) applyBucket(ops []writeOp, replace bool, led *oplog.Ledger) error {
	if replace {
		// Durably mark the file dirty before the first page mutation.
		if err := t.markDirty(); err != nil {
			return err
		}
	}
	primary, err := t.getBucketPage(led, ops[0].bucket)
	if err != nil {
		return err
	}
	primary.Pin() // cur's pin moves down the chain; this one holds the filter page
	unfound, unplaced := 0, 0
	for i := range ops {
		if !ops[i].dead {
			unfound++
			if !ops[i].del {
				unplaced++
			}
		}
	}

	var prev, room *buffer.Buf
	cur, pos, roomPos, ovflPages := primary, 0, 0, int64(0)
	defer func() {
		for _, b := range [...]*buffer.Buf{primary, prev, cur, room} {
			if b != nil {
				t.pool.Put(b)
			}
		}
		if ovflPages > 0 {
			t.m.chainPages.Add(ovflPages)
			t.m.chainWalks.Inc()
		}
	}()
	for {
		n, err := t.dropStale(cur, primary, pos, ops, unfound, replace)
		if err != nil {
			return err
		}
		unfound -= n
		pg := page(cur.Page)
		if replace {
			unplaced -= t.packOps(cur, primary, pos, ops)
		} else if room == nil && ops[0].fits(pg) {
			room, roomPos = cur, pos
			room.Pin()
		}
		next := pg.ovflLink()
		if replace && cur.Addr.Ovfl && pg.nentries() == 0 {
			gone := cur
			cur, prev = prev, nil
			pos--
			if err := t.unlinkOvfl(cur, gone, primary); err != nil {
				return err
			}
		}
		if next == 0 || unfound == 0 && unplaced == 0 {
			break
		}
		nb, err := t.pool.GetOp(led, ovflBufAddr(next), cur, false)
		if err != nil {
			return err
		}
		ovflPages++
		if prev != nil {
			t.pool.Put(prev)
		}
		prev, cur = cur, nb
		pos++
	}

	if !replace {
		if err := t.markDirty(); err != nil {
			return err
		}
		if room != nil {
			unplaced -= t.packOps(room, primary, roomPos, ops)
		}
	}
	// Whatever did not fit on the existing chain goes onto fresh overflow
	// pages appended at the tail (cur: the walk ended there).
	for unplaced > 0 {
		nb, err := t.appendOvfl(cur)
		if err != nil {
			return err
		}
		if prev != nil {
			t.pool.Put(prev)
		}
		prev, cur = cur, nb
		pos++
		n := t.packOps(cur, primary, pos, ops)
		if n == 0 {
			return fmt.Errorf("%w: pair does not fit on empty page", ErrCorrupt)
		}
		unplaced -= n
	}
	return nil
}

// dropStale removes from buf's page (chain position pos) the entry each
// live op of the set supersedes — the copy it replaces or deletes — if it
// is there, keeping nkeys, the pair checksum and the primary's filter
// current, and reports how many ops found theirs; want is how many are
// still looking. With replace false a match is ErrKeyExists and nothing
// is touched.
func (t *Table) dropStale(buf, primary *buffer.Buf, pos int, ops []writeOp, want int, replace bool) (int, error) {
	if want == 0 {
		return 0, nil
	}
	// stale is one on-page entry the set supersedes.
	type stale struct {
		entry, op int
		ref       oaddr
		sum       uint64 // regular pairs: fingerprint captured during the scan
	}
	var remsArr [4]stale
	rems := remsArr[:0]
	pg := page(buf.Page)
	// The page is not modified during forEach; removals are applied
	// after, in descending entry order so indices stay valid.
	var inner error
	ferr := pg.forEach(func(i int, e entry) bool {
		oi, err := t.matchOp(ops, &e)
		if err != nil {
			inner = err
			return false
		}
		if oi >= 0 {
			r := stale{entry: i, op: oi, ref: e.ref}
			if e.kind == entryRegular {
				r.sum = pairHash(e.key, e.data)
			}
			rems = append(rems, r)
			ops[oi].found = true // matchOp passes it over from here on
		}
		return len(rems) < want
	})
	if ferr != nil {
		return 0, ferr
	}
	if inner != nil {
		return 0, inner
	}
	if len(rems) > 0 && !replace {
		return 0, ErrKeyExists
	}
	for j := len(rems) - 1; j >= 0; j-- {
		r, op := rems[j], &ops[rems[j].op]
		if r.ref != 0 {
			// Fingerprint the big pair before its chain is freed.
			old, err := t.readBigData(r.ref, nil)
			if err != nil {
				return 0, err
			}
			r.sum = pairHash(op.key, old)
			if err := t.freeBigChain(r.ref); err != nil {
				return 0, err
			}
		}
		if err := pg.removeEntry(r.entry); err != nil {
			return 0, err
		}
		buf.Dirty.Store(true)
		t.nkeysA.Add(-1)
		t.xorPairSum(r.sum)
		page(primary.Page).filterRemove(op.hash, pos)
		primary.Dirty.Store(true)
	}
	return len(rems), nil
}

// matchOp returns the index of the live op whose key is e's and which is
// still looking for the copy it supersedes, or -1. A set of one compares
// a big pair's key in place on its chain; larger sets materialise it
// once. Groups too large to scan are searched by hash, which is what
// applySet sorted them on.
func (t *Table) matchOp(ops []writeOp, e *entry) (int, error) {
	key := e.key
	if e.kind == entryBig {
		if len(ops) == 1 {
			eq, err := t.bigKeyEquals(e.ref, ops[0].key)
			if err != nil || !eq {
				return -1, err
			}
			return 0, nil
		}
		var err error
		if key, err = t.bigKey(e.ref); err != nil {
			return -1, err
		}
	}
	lo, hi := 0, len(ops)
	if hi > 16 {
		h := t.hash(key)
		lo, _ = slices.BinarySearchFunc(ops, h, func(op writeOp, h uint32) int { return cmp.Compare(op.hash, h) })
		for hi = lo; hi < len(ops) && ops[hi].hash == h; hi++ {
		}
	}
	for j := lo; j < hi; j++ {
		if op := &ops[j]; !op.dead && !op.found && bytes.Equal(op.key, key) {
			return j, nil
		}
	}
	return -1, nil
}

// packOps places every live, unplaced put of the set that fits on buf's
// page (chain position pos), tagging each on the primary's filter as it
// lands, and reports how many it placed.
func (t *Table) packOps(buf, primary *buffer.Buf, pos int, ops []writeOp) int {
	pg, n := page(buf.Page), 0
	for i := range ops {
		op := &ops[i]
		if op.del || op.dead || op.placed || !op.fits(pg) {
			continue
		}
		op.addTo(pg)
		op.placed = true
		n++
		buf.Dirty.Store(true)
		t.nkeysA.Add(1)
		t.xorPairSum(pairHash(op.key, op.data))
		page(primary.Page).filterAdd(op.hash, pos)
		primary.Dirty.Store(true)
	}
	return n
}

// insert places one gathered pair — key and data, or a big pair's ref —
// into bucket without checking for duplicates (h is the key's hash): the
// split's redistribution step, whose pairs are already counted in nkeys
// and the pair checksum.
func (t *Table) insert(bucket, h uint32, op *writeOp) error {
	pos := -1
	err := t.walkChain(nil, bucket, func(buf *buffer.Buf) (bool, error) {
		pos++
		if !op.fits(page(buf.Page)) {
			if page(buf.Page).ovflLink() != 0 {
				return false, nil
			}
			// End of chain: grow it.
			nb, err := t.appendOvfl(buf)
			if err != nil {
				return false, err
			}
			defer t.pool.Put(nb)
			if buf, pos = nb, pos+1; !op.fits(page(buf.Page)) {
				return false, fmt.Errorf("%w: pair does not fit on empty page", ErrCorrupt)
			}
		}
		op.addTo(page(buf.Page))
		buf.Dirty.Store(true)
		return true, nil
	})
	if err != nil {
		return err
	}
	// Tag the pair on the bucket's primary page.
	pb, err := t.getBucketPage(nil, bucket)
	if err != nil {
		return err
	}
	page(pb.Page).filterAdd(h, pos)
	pb.Dirty.Store(true)
	t.pool.Put(pb)
	return nil
}

// appendOvfl allocates an overflow page, links it after tail (which must
// be the last page of a chain) and returns it pinned and initialized.
// It records that an uncontrolled split is due. Every step that can fail
// comes before the link is written, so a failure leaves the chain and
// the primary's chain counter as they were.
func (t *Table) appendOvfl(tail *buffer.Buf) (*buffer.Buf, error) {
	// tail.Owner names the owning bucket even when tail is itself an
	// overflow page.
	pb, err := t.getBucketPage(nil, tail.Owner())
	if err != nil {
		return nil, err
	}
	defer t.pool.Put(pb)
	o, err := t.allocOvfl()
	if err != nil {
		return nil, err
	}
	nb, err := t.pool.Get(ovflBufAddr(o), tail, true)
	if err == nil {
		if err = page(tail.Page).setOvflLink(o); err != nil {
			t.pool.Put(nb)
		}
	}
	if err != nil {
		_ = t.freeOvfl(o)
		return nil, err
	}
	tail.Dirty.Store(true)
	// The page may hold stale contents (reclaimed page): reformat.
	clear(nb.Page)
	initPage(page(nb.Page))
	nb.Dirty.Store(true)
	page(pb.Page).fltChainInc()
	pb.Dirty.Store(true)
	t.addedOvfl.Store(true)
	return nb, nil
}

// unlinkOvfl removes the empty overflow page held in buf from the chain:
// prev's link is redirected to buf's successor and buf's page is freed.
// primary is the chain's pinned primary page. buf is consumed (unpinned
// and dropped) on every path.
func (t *Table) unlinkOvfl(prev, buf, primary *buffer.Buf) error {
	succ := page(buf.Page).ovflLink()
	ppg := page(prev.Page)
	if succ == 0 {
		ppg.clearOvflLink()
	} else if err := ppg.setOvflLink(succ); err != nil {
		t.pool.Put(buf)
		return err
	}
	prev.Dirty.Store(true)
	// Account the unlink on the primary's filter region: the chain is
	// one page shorter, and when the removed page had successors their
	// positions all shifted down — position hints can no longer be
	// trusted (a hint one past a key's real page would make a hinted
	// walk skip it: a forbidden false negative).
	fpg := page(primary.Page)
	fpg.fltChainDec()
	if succ != 0 {
		fpg.setFltInexact()
	}
	primary.Dirty.Store(true)
	o := oaddr(buf.Addr.N)
	t.pool.Drop(buf)
	return t.freeOvfl(o)
}

// Len returns the number of keys in the table.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.nkeysA.Load())
}

// Sync flushes all dirty pages, bitmaps and the header to the store.
func (t *Table) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkOpen(); err != nil {
		return err
	}
	if t.readonly {
		return nil
	}
	return t.syncLocked()
}

// syncLocked is the ordered two-phase durability protocol. Phase one
// writes every dirty data page and bitmap and syncs, so the pages are on
// stable storage before the header that describes them. Phase two stamps
// the header with the next sync epoch and a clear dirty flag, writes it,
// and syncs again. A power cut before the second sync completes leaves
// the old dirty header (or a torn one, caught by its CRC) in place, and
// recovery falls back to the last-synced state; a crash after it leaves
// a clean header that is trustworthy precisely because everything it
// describes was synced first. On any error the dirty flags stay set, so
// a later sync retries the whole protocol.
func (t *Table) syncLocked() error {
	if t.needsRecovery {
		// An unrecovered dirty file must never receive a clean header:
		// that would bless pages that do not reproduce any synced state.
		return ErrNeedsRecovery
	}
	t0 := time.Now()
	t.tr.Emit(trace.EvSyncBegin, t.hdr.syncEpoch+1, 0, 0, 0)
	// Sorted, coalesced flush: dirty pages reach the store in ascending
	// file order (see buffer.Pool.FlushAll).
	if err := t.pool.FlushAll(); err != nil {
		return err
	}
	if err := t.flushBitmaps(); err != nil {
		return err
	}
	// Fold the shared-phase running counters back into the header image
	// before it is written: between syncs hdr.nkeys/hdr.pairSum hold the
	// last-synced values and the atomics carry the live state. With a WAL
	// attached the applied LSN rides along — after this sync completes,
	// every transaction at or below it is in the pages, so this sync is a
	// checkpoint.
	t.hdr.nkeys = t.nkeysA.Load()
	t.hdr.pairSum = t.pairSumA.Load()
	applied := uint64(0)
	if t.wal != nil && !t.walShared {
		// A shared log's owner picks the checkpoint LSN (Checkpoint): this
		// table's appliedLSN can run ahead of a lower-LSN commit that is
		// durable in the log but not yet applied here.
		applied = t.appliedLSN.Load()
		if t.hdr.walLSN != applied {
			t.hdr.walLSN = applied
			t.dirtyHdr.Store(true)
		}
	}
	if !t.dirtyHdr.Load() && !t.dirtyMarked.Load() {
		// Nothing changed since the last completed sync: the on-disk
		// header is already clean and current.
		err := t.store.Sync()
		if err == nil {
			t.m.syncs.Inc()
			t.m.syncLatency.Observe(time.Since(t0))
			t.tr.EmitDur(trace.EvSyncEnd, time.Since(t0), t.hdr.syncEpoch, 1, 0, 0)
		}
		return err
	}
	if err := t.store.Sync(); err != nil {
		return err
	}
	t.tr.Emit(trace.EvSyncPhase, trace.SyncPhaseData, t.hdr.syncEpoch+1, 0, 0)
	t.hdr.syncEpoch++
	if err := t.writeHeader(false); err != nil {
		t.hdr.syncEpoch-- // keep the epoch in step with what is on disk
		return err
	}
	if err := t.store.Sync(); err != nil {
		return err
	}
	t.tr.Emit(trace.EvSyncPhase, trace.SyncPhaseHeader, t.hdr.syncEpoch, 0, 0)
	t.dirtyHdr.Store(false)
	t.dirtyMarked.Store(false)
	t.m.syncs.Inc()
	t.m.syncLatency.Observe(time.Since(t0))
	t.tr.EmitDur(trace.EvSyncEnd, time.Since(t0), t.hdr.syncEpoch, 0, 0, 0)
	return t.checkpointWAL(applied)
}

// checkpointWAL completes a checkpoint after a successful header sync:
// every commit at or below applied is durably in the pages, so the log
// records are dead weight and the file is truncated back to its header.
// The reset is skipped when the log holds commits beyond applied — that
// happens during recovery, whose internal sync runs before the pending
// transactions are replayed, and after a partially applied commit
// (walErr), where the un-replayed records are precisely what makes the
// next Recover converge. Skipping is always safe: a stale log only costs
// a scan-and-skip at the next open. A reset failure is returned loudly
// but does not undo the sync — the pages and header are already durable.
func (t *Table) checkpointWAL(applied uint64) error {
	if t.wal == nil || t.walShared || t.walDamaged() != nil || t.wal.LastLSN() > applied {
		return nil
	}
	logBytes := t.wal.Size()
	if err := t.wal.Reset(applied, t.hdr.syncEpoch); err != nil {
		return fmt.Errorf("hash: wal checkpoint: %w", err)
	}
	t.m.checkpoints.Inc()
	t.tr.Emit(trace.EvCheckpoint, applied, t.hdr.syncEpoch, uint64(logBytes), 0)
	return nil
}

// walDamaged returns the poison error set after a commit applied only
// partially, or nil.
func (t *Table) walDamaged() error {
	t.walErrMu.Lock()
	defer t.walErrMu.Unlock()
	return t.walErr
}

func (t *Table) setWALDamaged(err error) {
	t.walErrMu.Lock()
	if t.walErr == nil {
		t.walErr = err
	}
	t.walErrMu.Unlock()
}

// Close flushes (unless read-only) and closes the table. Closing a
// memory-resident table discards it.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	var err error
	if !t.readonly && !t.needsRecovery {
		err = t.syncLocked()
	}
	if e := t.pool.InvalidateAll(); err == nil {
		err = e
	}
	if t.wal != nil && t.walOwnDev {
		if e := t.wal.Close(); err == nil {
			err = e
		}
	}
	if t.ownStore {
		if e := t.store.Close(); err == nil {
			err = e
		}
	}
	t.closed = true
	return err
}

// Pool exposes the buffer pool for tests and the bench harness.
func (t *Table) Pool() *buffer.Pool { return t.pool }

// Store exposes the backing store for tests and the bench harness.
func (t *Table) Store() pagefile.Store { return t.store }

// Tracer exposes the tracer the table was opened with (nil when tracing
// is disabled). With MetricsRegistry, MetricsSnapshot and Heatmap, none
// of which takes the table lock exclusively, it is what a caller mounts
// on the telemetry surface: the table itself opens no socket.
func (t *Table) Tracer() *trace.Tracer { return t.tr }

// Geometry reports the table's current shape.
type Geometry struct {
	Bsize     int
	Ffactor   int
	MaxBucket uint32
	OvflPoint uint32
	HdrPages  uint32
	NKeys     int64
	SyncEpoch uint64
	// WalLSN is the checkpoint LSN from the header; AppliedLSN the last
	// commit applied in memory. They differ between a commit and the
	// next checkpoint. Both zero without Options.WAL.
	WalLSN     uint64
	AppliedLSN uint64
	Spares     [maxSplits]uint32
}

// Geometry returns the table's current shape for tools and tests. It
// takes the exclusive lock: the spares array and header geometry mutate
// under ovflMu/splitMu during the shared phase, and the exclusive lock
// is the one order that quiesces both.
func (t *Table) Geometry() Geometry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Geometry{
		Bsize:      int(t.hdr.bsize),
		Ffactor:    int(t.hdr.ffactor),
		MaxBucket:  t.hdr.maxBucket,
		OvflPoint:  t.hdr.ovflPoint,
		HdrPages:   t.hdr.hdrPages,
		NKeys:      t.nkeysA.Load(),
		SyncEpoch:  t.hdr.syncEpoch,
		WalLSN:     t.hdr.walLSN,
		AppliedLSN: t.appliedLSN.Load(),
		Spares:     t.hdr.spares,
	}
}

// Unsettled reports why the pages may not show the last commit: the
// header's dirty flag (a writer stopped between syncs) and the count of
// committed log transactions not yet replayed, nonzero only on a table
// opened with AllowDirty before Recover runs. It takes only the shared
// lock, so an inspection stops no reader or writer.
func (t *Table) Unsettled() (dirty bool, walPending int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dirtyMarked.Load(), len(t.walPending)
}

// WALStats returns the attached log's activity counters (appends,
// fsyncs, joins, simulated I/O time). ok is false when the table has no
// write-ahead log.
func (t *Table) WALStats() (st wal.Stats, ok bool) {
	if t.wal == nil || t.walShared {
		return wal.Stats{}, false
	}
	return t.wal.Stats(), true
}

// WALLSNs reports the header's checkpoint LSN, the last commit applied
// in memory, and the last commit appended to the table's own log (0
// without one). The stamp moves only under the exclusive lock, so the
// shared lock suffices: a commit parked in fsync does not hold this up.
func (t *Table) WALLSNs() (checkpoint, applied, last uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	checkpoint, applied = t.hdr.walLSN, t.appliedLSN.Load()
	if t.wal != nil && !t.walShared {
		last = t.wal.LastLSN()
	}
	return checkpoint, applied, last
}
