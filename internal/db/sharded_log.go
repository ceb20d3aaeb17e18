package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"unixhash/internal/core"
	"unixhash/internal/metrics"
	"unixhash/internal/pagefile"
	"unixhash/internal/wal"
)

// The directory log of a Sharded database: opening and recovering it,
// migrating directories that still have per-shard sidecars, and the
// checkpoint protocol. DESIGN.md §12 ("One log per database") has the
// argument; the commit path that feeds the log is shardedTxn.Commit.

// logName is the directory log's file name, next to SHARDS and the
// shard-NNN.db files.
const logName = "wal"

func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.db", i))
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return path != "" && err == nil
}

// RecoverSharded is OpenSharded for a directory that may have crashed:
// each shard goes through core.Recover — the strict gate that restores
// exactly its last-synced state or fails loudly — and is then brought
// forward by replaying, in log order, the committed transactions whose
// LSN is above that shard's own checkpoint stamp, each op routed by its
// key. One checkpoint then stamps every shard and truncates the log. A
// clean or new directory passes straight through. The reports are
// per-shard, in shard order.
func RecoverSharded(dir string, nshards int, cfg *Config) (*Sharded, []core.RecoveryReport, error) {
	return openSharded(dir, nshards, cfg, nil, true)
}

// OpenShardedStores is OpenSharded for a memory-resident database whose
// shard i lives on stores[i] instead of a store the table creates. The
// caller keeps ownership of the stores: Close leaves them open. It is the
// seam for tests outside this package that need to watch, slow or fail
// one shard's page I/O under the real router.
func OpenShardedStores(stores []pagefile.Store, cfg *Config) (*Sharded, error) {
	s, _, err := openSharded("", len(stores), cfg, stores, false)
	return s, err
}

// openSharded is the one open path. stores, when set, backs shard i with
// stores[i] instead of a file or memory — the crash tests' seam.
func openSharded(dir string, nshards int, cfg *Config, stores []pagefile.Store, recover bool) (*Sharded, []core.RecoveryReport, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if nshards < 1 || nshards > MaxShards {
		return nil, nil, fmt.Errorf("%w: hash option Shards: %d must be in [1, %d]", ErrBadOptions, nshards, MaxShards)
	}
	if err := validate(c.Hash); err != nil {
		return nil, nil, err
	}
	var base core.Options
	if c.Hash != nil {
		base = *c.Hash
	}
	if base.Store != nil {
		return nil, nil, fmt.Errorf("%w: hash option Store: cannot share one store across %d shards", ErrBadOptions, nshards)
	}
	if base.Metrics == nil {
		base.Metrics = metrics.New()
	}
	// Split the expected element count across shards so presizing builds
	// each shard at its final geometry rather than N full-sized tables.
	if base.Nelem > 0 {
		base.Nelem = (base.Nelem + nshards - 1) / nshards
	}
	// The log belongs to the database: the shards attach to it through
	// SharedLog and must not open sidecars of their own.
	logging, dev := base.WAL || base.WALDevice != nil, base.WALDevice
	base.WAL, base.WALDevice = false, nil

	s := &Sharded{reg: base.Metrics, tr: base.Trace, readonly: base.ReadOnly, shards: make([]*hashDB, 0, nshards)}
	fail := func(err error) (*Sharded, []core.RecoveryReport, error) {
		s.closeFiles()
		return nil, nil, err
	}
	reports := make([]core.RecoveryReport, nshards)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, nil, fmt.Errorf("db: sharded open: %w", err)
		}
		if err := s.own(dir, nshards); err != nil {
			return fail(err)
		}
		migrated, err := drainSidecars(dir, base, recover, reports)
		if err != nil {
			return fail(err)
		}
		if migrated || fileExists(filepath.Join(dir, logName)) {
			logging = true // the directory logs, whatever cfg says
		} else if base.ReadOnly {
			logging = false // no log to read, and none may be created
		}
	}

	var scan wal.ScanResult
	if logging {
		own := dev == nil
		switch {
		case !own:
			// Caller-owned device.
		case dir == "":
			dev = wal.NewMemDevice()
		default:
			fd, err := wal.OpenFileDevice(filepath.Join(dir, logName))
			if err != nil {
				return fail(fmt.Errorf("db: sharded open: log: %w", err))
			}
			dev = fd
		}
		l, sr, err := wal.Open(dev, wal.CostModel{}, base.Trace)
		if err != nil {
			if own {
				dev.Close()
			}
			return fail(fmt.Errorf("db: sharded open: log: %w", err))
		}
		s.log, s.ownLog, scan, base.SharedLog = l, own, sr, l
		l.RegisterMetrics(s.reg)
		s.commits = s.reg.Counter(core.MetricTxnCommits)
	}

	for i := 0; i < nshards; i++ {
		opts, path := base, ""
		if stores != nil {
			opts.Store = stores[i]
		} else if dir != "" {
			path = shardPath(dir, i)
		}
		t, rep, err := openShard(path, &opts, recover)
		if !reports[i].WasDirty && reports[i].WALTxns == 0 {
			reports[i] = rep // else the sidecar drain did the work: keep its report
		}
		if err != nil {
			return fail(fmt.Errorf("db: sharded open: shard %d: %w", i, err))
		}
		s.shards = append(s.shards, &hashDB{t})
	}
	if s.log != nil {
		if err := s.reconcileLog(scan, recover, reports); err != nil {
			return fail(err)
		}
	}
	return s, reports, nil
}

// openShard opens one shard's table: through core.Recover when recover
// is set and there is something to recover (core.Recover refuses a path
// that does not exist yet), else with a plain core.Open.
func openShard(path string, opts *core.Options, recover bool) (*core.Table, core.RecoveryReport, error) {
	if recover && (opts.Store != nil || fileExists(path)) {
		return core.Recover(path, opts)
	}
	t, err := core.Open(path, opts)
	return t, core.RecoveryReport{}, err
}

// drainSidecars migrates a directory written when every shard had its own
// log: a leftover shard-NNN.db.wal is attached to its shard one last time
// through the per-table path (core.Recover replays what it holds when
// recover is set; a plain open refuses with ErrNeedsRecovery if it holds
// anything), the shard is checkpointed by Close, and the sidecar removed
// — after which the directory log takes over. It reports whether there
// was anything to migrate.
func drainSidecars(dir string, base core.Options, recover bool, reports []core.RecoveryReport) (bool, error) {
	migrated := false
	for i := range reports {
		path := shardPath(dir, i)
		side := path + ".wal"
		if !fileExists(side) {
			continue
		}
		if base.ReadOnly {
			return false, fmt.Errorf("db: sharded open: %s is a per-shard log from an older layout; open the directory writable once to migrate it", side)
		}
		opts := base
		opts.WAL = true
		t, rep, err := openShard(path, &opts, recover)
		reports[i] = rep
		if err == nil {
			err = t.Close()
		}
		if err != nil {
			return false, fmt.Errorf("db: sharded open: shard %d: draining %s: %w", i, side, err)
		}
		if err := os.Remove(side); err != nil {
			return false, fmt.Errorf("db: sharded open: %w", err)
		}
		migrated = true
	}
	return migrated, nil
}

// reconcileLog squares the freshly scanned log with the shards' own
// checkpoint stamps. A shard's stamp says "every commit at or below this
// LSN is in my pages" — so a logged transaction is replayed into a shard
// only when it is above that shard's stamp, which is what keeps a plain
// Put that was synced after a transaction from being rolled back to the
// transaction's older value when a power cut lands between the shards'
// header stamps and the log reset. Without recover, anything to replay is
// ErrNeedsRecovery.
func (s *Sharded) reconcileLog(scan wal.ScanResult, recover bool, reports []core.RecoveryReport) error {
	stamps := make([]uint64, len(s.shards))
	clean := scan.HeaderOK && !scan.Torn && len(scan.Txns) == 0
	for i, sh := range s.shards {
		stamps[i] = sh.t.Geometry().WalLSN
		if scan.HeaderOK && stamps[i] < scan.CheckpointLSN {
			// The log was reset at a checkpoint this shard never took: the
			// shard file was replaced or rolled back underneath the log.
			return fmt.Errorf("db: sharded open: shard %d: %w: log checkpoint %d is ahead of the shard's %d",
				i, core.ErrUnrecoverable, scan.CheckpointLSN, stamps[i])
		}
		clean = clean && stamps[i] == scan.CheckpointLSN
		if stamps[i] > s.ckptLSN.Load() {
			s.ckptLSN.Store(stamps[i])
		}
	}
	s.log.EnsureLSN(s.ckptLSN.Load())
	for _, tx := range scan.Txns {
		for i, ops := range splitByShard(tx.Ops, len(s.shards), opKey) {
			if len(ops) == 0 || tx.LSN <= stamps[i] {
				continue
			}
			if !recover {
				return fmt.Errorf("db: sharded open: shard %d: unapplied commits in the log: %w", i, core.ErrNeedsRecovery)
			}
			if err := s.shards[i].t.ApplyCommitted(nil, tx.LSN, ops); err != nil {
				return fmt.Errorf("db: sharded recover: shard %d: replay txn %d: %w", i, tx.LSN, err)
			}
			reports[i].WALTxns++
			reports[i].WALOps += len(ops)
		}
	}
	if s.readonly || clean {
		return nil
	}
	// Fresh, stale, torn or just replayed: one checkpoint brings every
	// shard to the same stamp and leaves an empty log behind.
	if err := s.checkpointLocked(true); err != nil {
		return err
	}
	for i, sh := range s.shards {
		if reports[i].WALTxns > 0 {
			g := sh.t.Geometry()
			reports[i].NKeys, reports[i].SyncEpoch = g.NKeys, g.SyncEpoch
		}
	}
	return nil
}

// checkpointLocked is the checkpoint protocol; the caller holds ckpt
// exclusively, so no commit is between its append and its last apply.
// Every commit the log holds is therefore in the shards' memory, and its
// last LSN is a stamp all of them can take: each shard runs its two-phase
// sync with that LSN in its header, and only when every header is durable
// is the log reset. A cut anywhere before the reset leaves the log whole
// and the stamps tell replay what each shard still needs; a cut after it
// needs nothing. A poisoned database flushes its pages but moves no stamp
// and keeps the log: what recovery needs is exactly what is in it. force
// resets a log that holds no commit (open: a fresh, torn or stale file).
func (s *Sharded) checkpointLocked(force bool) error {
	lsn, poisoned := s.ckptLSN.Load(), s.damaged.Load() != nil
	if last := s.log.LastLSN(); last > lsn && !poisoned {
		lsn = last
	}
	if err := s.fanOut(nil, func(_ int, sh *hashDB) error { return sh.t.Checkpoint(lsn) }); err != nil {
		return err
	}
	if poisoned || (s.log.LastLSN() == 0 && !force) {
		return nil
	}
	if err := s.log.Reset(lsn, 0); err != nil {
		return fmt.Errorf("db: sharded checkpoint: %w", err)
	}
	s.ckptLSN.Store(lsn)
	return nil
}

// closeFiles closes the shards, the log and the directory lock without a
// checkpoint: the tail of Close, and the whole of abandoning an open.
func (s *Sharded) closeFiles() error {
	s.closed = true
	err := s.fanOut(nil, func(_ int, sh *hashDB) error { return sh.Close() })
	if s.ownLog {
		err = errors.Join(err, s.log.Close())
	}
	if s.owner != nil {
		err = errors.Join(err, s.owner.Close())
	}
	return err
}

// commitReady gates a commit; the caller holds ckpt.
func (s *Sharded) commitReady() error {
	switch {
	case s.closed:
		return core.ErrClosed
	case s.readonly:
		return core.ErrReadOnly
	case s.log == nil:
		return core.ErrNoWAL
	}
	if p := s.damaged.Load(); p != nil {
		return *p
	}
	return nil
}

// poison records the first commit-path failure and returns err.
func (s *Sharded) poison(err error) error {
	s.damaged.CompareAndSwap(nil, &err)
	return err
}
