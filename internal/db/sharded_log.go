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

// The directory log of a Sharded database: opening it and migrating
// directories that still have per-shard sidecars. Commit, checkpoint and
// recovery over it are wal.Owner's, with every shard as one of its tables
// (DESIGN.md §12).

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
	// The log belongs to the database: the shards are marked SharedLog and
	// must not open sidecars of their own.
	logging, dev := base.WAL || base.WALDevice != nil, base.WALDevice
	base.WAL, base.WALDevice, base.SharedLog = false, nil, false

	s := &Sharded{reg: base.Metrics, tr: base.Trace, readonly: base.ReadOnly, shards: make([]*hashDB, 0, nshards)}
	fail := func(err error) (*Sharded, []core.RecoveryReport, error) {
		s.closeFiles()
		return nil, nil, err
	}
	reports := make([]core.RecoveryReport, nshards)
	if dir != "" {
		if !s.readonly { // a read-only open creates nothing, not even dir
			if err := os.MkdirAll(dir, 0o777); err != nil {
				return nil, nil, fmt.Errorf("db: sharded open: %w", err)
			}
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

	for i := 0; i < nshards; i++ {
		opts, path := base, ""
		opts.SharedLog = logging
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
	if logging {
		if err := s.openLog(dir, dev, recover, reports); err != nil {
			return fail(err)
		}
	}
	return s, reports, nil
}

// openLog opens the directory log (dev when the caller supplies one) and
// hands it with every shard to a wal.Owner, which refuses a log that is
// ahead of a shard and replays, in log order, each commit's ops into the
// shards whose stamp is below it — so a plain Put synced after a
// transaction is not rolled back to the transaction's older value when a
// power cut lands between the shards' header stamps and the log reset.
// Without recover, anything to replay is ErrNeedsRecovery.
func (s *Sharded) openLog(dir string, dev wal.Device, recover bool, reports []core.RecoveryReport) error {
	s.ownLog = dev == nil
	switch {
	case !s.ownLog:
	case dir == "":
		dev = wal.NewMemDevice()
	default:
		var err error
		if dev, err = wal.OpenFile(filepath.Join(dir, logName), s.readonly); err != nil {
			return fmt.Errorf("db: sharded open: log: %w", err)
		}
	}
	n := len(s.shards)
	tables := make([]wal.Table, n)
	for i, sh := range s.shards {
		tables[i] = sh.Table
	}
	l, sr, err := wal.Open(dev, wal.CostModel{}, s.tr)
	if err != nil {
		err = fmt.Errorf("db: sharded open: log: %w", err)
	} else if s.log, err = wal.Attach(l, sr, tables, wal.OwnerOptions{
		Route: func(key []byte) int { return shardOf(key, n) },
		Each: func(fn func(i int) error) error {
			return s.fanOut(nil, nil, func(i int, _ *hashDB) error { return fn(i) })
		},
		Metrics: s.reg,
	}); err != nil {
		err = fmt.Errorf("db: sharded open: %w: %w", core.ErrUnrecoverable, err)
	}
	if err != nil {
		if s.ownLog {
			dev.Close()
		}
		return err
	}
	if s.log.Pending() > 0 && !recover {
		return fmt.Errorf("db: sharded open: unapplied commits in the log: %w", core.ErrNeedsRecovery)
	}
	if s.readonly {
		return nil
	}
	// Fresh, stale, torn or replayed: one checkpoint brings every shard
	// to the same stamp and leaves an empty log behind.
	replayed, err := s.log.Recover()
	if err != nil {
		return fmt.Errorf("db: sharded recover: %w", err)
	}
	for i, r := range replayed {
		if r.Txns > 0 {
			reports[i].WALTxns += r.Txns
			reports[i].WALOps += r.Ops
			reports[i].NKeys = int64(s.shards[i].Len())
			_, reports[i].SyncEpoch = s.shards[i].Stamp()
		}
	}
	return nil
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
		// A registry of its own: the database's sums every table that
		// registered in it, and this one closes before its shard reopens.
		opts := base
		opts.WAL, opts.Metrics = true, nil
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

// closeFiles closes the shards, the log and the directory lock without a
// checkpoint: the tail of Close, and the whole of abandoning an open.
func (s *Sharded) closeFiles() error {
	err := s.fanOut(nil, nil, func(_ int, sh *hashDB) error { return sh.Close() })
	if s.log != nil && s.ownLog {
		err = errors.Join(err, s.log.Log().Close())
	}
	if s.owner != nil {
		err = errors.Join(err, s.owner.Close())
	}
	return err
}
