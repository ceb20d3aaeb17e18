package wal

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/trace"
)

// Table is a table whose commits an Owner logs.
type Table interface {
	// ApplyCommitted applies the table's share of a commit that is
	// durable in the log at lsn, as one unit.
	ApplyCommitted(led *oplog.Ledger, lsn uint64, ops []Op) error
	// Checkpoint flushes the table with lsn stamped as its checkpoint:
	// every commit at or below it is in the pages once it returns.
	Checkpoint(lsn uint64) error
	// Stamp reads the checkpoint LSN and the sync epoch in the table's
	// header.
	Stamp() (lsn, epoch uint64)
}

// Metric names of an Owner's own counts, views in its registry. Commits
// are acknowledged transactions; replays are logged transactions that
// recovery applied again; checkpoints are resets of a log that held
// commits, counted as the log's EvCheckpoint events.
const (
	MetricTxnCommits  = "hash_txn_commits_total"
	MetricWalReplays  = "hash_wal_replayed_txns_total"
	MetricCheckpoints = "hash_checkpoints_total"
)

// ErrAhead reports a log whose last reset recorded a checkpoint that one
// of its tables never took: the table file was replaced or rolled back
// underneath the log, and no automatic answer is safe.
var ErrAhead = errors.New("wal: log is ahead of its tables")

// OwnerOptions parameterize Attach.
type OwnerOptions struct {
	// Route names the table a key belongs to. Nil means there is one.
	Route func(key []byte) int
	// Each runs fn for every table and joins the errors; nil runs them
	// in order on the caller.
	Each func(fn func(i int) error) error
	// Metrics receives the log's wal_* series and the Metric* views;
	// required.
	Metrics *metrics.Registry
}

// Owner is the log protocol: it holds one Log and the tables whose commits
// live in it — one table for a file with a sidecar log, every shard for a
// directory with a shared log — and it is the only code that appends to,
// syncs or resets that log. Commit, checkpoint, recovery and the poison
// rule are written here once (DESIGN.md §12).
type Owner struct {
	log    *Log
	tables []Table
	opt    OwnerOptions

	commits, replays atomic.Int64

	// ckpt is the commit-vs-checkpoint lock: a commit holds it shared
	// from its append until its last table has applied, a checkpoint
	// holds it exclusively — so every commit the log holds when a
	// checkpoint reads its last LSN is in the tables' memory, and Reset
	// never runs with a commit in flight. It ranks above every table lock.
	ckpt    sync.RWMutex
	ckptLSN atomic.Uint64 // the last checkpoint every table took
	// closed and damaged refuse commits: closed after Close, damaged
	// after a failed append, sync or apply — the log may then hold a
	// commit that was never acknowledged or only partly applied, so it
	// is kept as it is until recovery replays it.
	closed  atomic.Pointer[error]
	damaged atomic.Pointer[error]

	// Set by Attach, consumed by Recover (both under ckpt or unpublished).
	pending []pendingTxn
	settled bool // the log holds no commit and its header matches the stamps
}

// pendingTxn is a logged commit with, per table, the ops that table has
// not applied (nil when its stamp covers them).
type pendingTxn struct {
	lsn uint64
	per [][]Op
}

// Replayed counts what Recover applied to one table.
type Replayed struct{ Txns, Ops int }

// Attach adopts l, as scanned by Open into sr, for tables. A table whose
// stamp is below the log's recorded checkpoint (LSN or epoch) fails with
// ErrAhead and nothing is written. Commits above a table's stamp stay
// pending until Recover applies them; Pending counts them.
func Attach(l *Log, sr ScanResult, tables []Table, opt OwnerOptions) (*Owner, error) {
	o := &Owner{log: l, tables: tables, opt: opt}
	stamps, epoch := o.stamps()
	low, high := slices.Min(stamps), slices.Max(stamps)
	if sr.HeaderOK && (sr.CheckpointLSN > low || sr.Epoch > epoch) {
		return nil, fmt.Errorf("%w: log checkpoint %d (epoch %d), lowest table stamp %d (epoch %d)",
			ErrAhead, sr.CheckpointLSN, sr.Epoch, low, epoch)
	}
	o.settled = sr.HeaderOK && !sr.Torn && len(sr.Txns) == 0 && high == sr.CheckpointLSN && sr.Epoch == epoch
	o.ckptLSN.Store(high)
	l.EnsureLSN(high)
	for _, tx := range sr.Txns {
		per, above := o.split(nil, tx.Ops), false
		for i := range per {
			if tx.LSN <= stamps[i] {
				per[i] = nil
			}
			above = above || len(per[i]) > 0
		}
		if above {
			o.pending = append(o.pending, pendingTxn{tx.LSN, per})
		}
	}
	reg := opt.Metrics
	l.RegisterMetrics(reg)
	reg.CounterFunc(MetricTxnCommits, o.commits.Load)
	reg.CounterFunc(MetricWalReplays, o.replays.Load)
	reg.CounterFunc(MetricCheckpoints, func() int64 { return l.tr.Count(trace.EvCheckpoint, 0) })
	return o, nil
}

// Pending reports how many logged commits hold ops that a table's pages
// do not: nonzero means the tables need Recover before they take writes.
func (o *Owner) Pending() int { return len(o.pending) }

// Recover applies, in log order, every pending commit to the tables that
// lack it, then checkpoints so that the log is empty and its header
// matches every table's stamp. The tables' pages must hold exactly their
// last checkpoint (a dirty table is recovered first). Nothing happens to
// a settled log. The counts are per table.
func (o *Owner) Recover() ([]Replayed, error) {
	o.ckpt.Lock()
	defer o.ckpt.Unlock()
	reps := make([]Replayed, len(o.tables))
	for _, tx := range o.pending {
		for i, ops := range tx.per {
			if len(ops) == 0 {
				continue
			}
			if err := o.tables[i].ApplyCommitted(nil, tx.lsn, ops); err != nil {
				return reps, fmt.Errorf("table %d: replay txn %d: %w", i, tx.lsn, err)
			}
			reps[i].Txns++
			reps[i].Ops += len(ops)
		}
		o.replays.Add(1)
	}
	if len(o.pending) == 0 && o.settled {
		return reps, nil
	}
	o.pending = nil
	if err := o.checkpoint(true); err != nil {
		return reps, err
	}
	o.settled = true
	return reps, nil
}

// split partitions ops by table into per, one list per table reused from
// its start, preserving order within each.
func (o *Owner) split(per [][]Op, ops []Op) [][]Op {
	per = slices.Grow(per[:0], len(o.tables))[:len(o.tables)]
	for i := range per {
		per[i] = per[i][:0]
	}
	for _, op := range ops {
		i := 0
		if o.opt.Route != nil {
			i = o.opt.Route(op.Key)
		}
		per[i] = append(per[i], op)
	}
	return per
}

// perPool recycles Commit's partitions, so a commit allocates none.
var perPool = sync.Pool{New: func() any { return new([][]Op) }}

// Ready reports why a commit would be refused now (closed or damaged),
// or nil. It takes no lock, so a caller may hold a table lock.
func (o *Owner) Ready() error {
	if p := o.closed.Load(); p != nil {
		return *p
	}
	if p := o.damaged.Load(); p != nil {
		return *p
	}
	return nil
}

// Commit makes ops durable, then visible: one append of every op under
// one commit frame, one group fsync shared with concurrent committers,
// then each table's share through ApplyCommitted. A failed append or
// fsync acknowledges and applies nothing; a failed apply leaves a durable
// commit partly visible. Either way the owner refuses every later commit
// and keeps the log as it is, so that Recover after a reopen replays
// what it holds. A non-nil led is charged the append (wal_marshal), the
// fsync (lead or join) and each table's apply.
func (o *Owner) Commit(led *oplog.Ledger, ops []Op) error {
	o.ckpt.RLock()
	defer o.ckpt.RUnlock()
	if err := o.Ready(); err != nil {
		return err
	}
	var st int64
	if led != nil {
		st = oplog.Clock()
	}
	lsn, end, err := o.log.Append(ops)
	led.Since(oplog.PhaseWALMarshal, st)
	if err == nil {
		err = o.log.SyncToOp(led, end)
	}
	if err != nil {
		return o.poison(fmt.Errorf("wal: commit: %w", err))
	}
	sp := perPool.Get().(*[][]Op)
	per := o.split(*sp, ops)
	defer func() {
		for i := range per {
			clear(per[i]) // the pool keeps no caller's bytes
		}
		*sp = per
		perPool.Put(sp)
	}()
	if o.opt.Route != nil {
		led.Count(oplog.PhaseRoute)
	}
	for i, ops := range per {
		if len(ops) == 0 {
			continue
		}
		if err := o.tables[i].ApplyCommitted(led, lsn, ops); err != nil {
			return o.poison(fmt.Errorf("wal: commit %d: table %d: %w", lsn, i, err))
		}
	}
	o.commits.Add(1)
	return nil
}

// poison records the first commit-path failure and returns err.
func (o *Owner) poison(err error) error {
	o.damaged.CompareAndSwap(nil, &err)
	return err
}

// Checkpoint waits out in-flight commits, stamps every table and resets
// the log (see checkpoint).
func (o *Owner) Checkpoint() error {
	o.ckpt.Lock()
	defer o.ckpt.Unlock()
	if p := o.closed.Load(); p != nil {
		return *p
	}
	return o.checkpoint(false)
}

// Close checkpoints, after which every Commit and Checkpoint fails with
// closed (the caller's own ErrClosed). It leaves the log device open.
func (o *Owner) Close(closed error) error {
	o.ckpt.Lock()
	defer o.ckpt.Unlock()
	if o.closed.Load() != nil {
		return nil
	}
	err := o.checkpoint(false)
	o.closed.Store(&closed)
	return err
}

// checkpoint is the checkpoint protocol; the caller holds ckpt
// exclusively, so no commit is between its append and its last apply.
// Every commit the log holds is therefore in the tables' memory, and its
// last LSN is a stamp all of them can take: each table runs its two-phase
// sync with that LSN in its header, and only when every header is durable
// is the log reset, recording the LSN and the lowest table sync epoch. A
// cut anywhere before the reset leaves the log whole and the stamps tell
// replay what each table still needs; a cut after it needs nothing. A
// damaged owner flushes the tables but moves no stamp and keeps the log:
// what recovery needs is exactly what is in it. force resets a log that
// holds no commit (open: a fresh, torn or stale file).
func (o *Owner) checkpoint(force bool) error {
	lsn, damaged := o.ckptLSN.Load(), o.damaged.Load() != nil
	held := o.log.LastLSN()
	if held > lsn && !damaged {
		lsn = held
	}
	if err := o.each(func(i int) error { return o.tables[i].Checkpoint(lsn) }); err != nil {
		return err
	}
	if damaged || (held == 0 && !force) {
		return nil
	}
	_, epoch := o.stamps()
	size := o.log.Size()
	if err := o.log.Reset(lsn, epoch); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	o.ckptLSN.Store(lsn)
	if held != 0 {
		o.log.tr.Emit(trace.EvCheckpoint, lsn, epoch, uint64(size), 0)
	}
	return nil
}

// stamps reads every table's checkpoint LSN, and their lowest sync epoch.
func (o *Owner) stamps() (lsns []uint64, epoch uint64) {
	lsns = make([]uint64, len(o.tables))
	for i, t := range o.tables {
		var ep uint64
		if lsns[i], ep = t.Stamp(); i == 0 || ep < epoch {
			epoch = ep
		}
	}
	return lsns, epoch
}

// each runs fn for every table: through OwnerOptions.Each, else in order.
func (o *Owner) each(fn func(i int) error) error {
	if o.opt.Each != nil {
		return o.opt.Each(fn)
	}
	var errs []error
	for i := range o.tables {
		errs = append(errs, fn(i))
	}
	return errors.Join(errs...)
}

// Commits reports how many transactions the owner has committed.
func (o *Owner) Commits() int64 { return o.commits.Load() }

// Log is the owned log, for its statistics and LSNs and for closing its
// device.
func (o *Owner) Log() *Log { return o.log }

// CheckpointLSN is the LSN of the last checkpoint every table took.
func (o *Owner) CheckpointLSN() uint64 { return o.ckptLSN.Load() }
