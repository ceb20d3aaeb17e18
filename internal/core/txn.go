package core

import (
	"errors"
	"fmt"

	"unixhash/internal/oplog"
	"unixhash/internal/wal"
)

// Transactions. Begin returns a Txn that buffers intent records; nothing
// touches the table until Commit. Commit appends every op plus a commit
// frame to the write-ahead log in one contiguous write, fsyncs the log
// (sharing the fsync with concurrent committers), and only then applies
// the ops to the live table as one write set — the same applySet
// (batch.go) that serves Put, Delete and PutBatch, so all buckets
// involved are write-latched together, in ascending stripe order, and the
// transaction becomes visible as a unit. Durability comes from the log:
// after Commit returns, a crash at any point is repaired by Recover
// replaying the committed transactions past the last checkpoint. The
// pages themselves reach the store lazily, at the next Sync (now a
// checkpoint) — which is why a durable single Put through a transaction
// costs one sequential log append instead of a full page flush.

var (
	// ErrNoWAL reports a transaction attempt on a table opened without
	// Options.WAL.
	ErrNoWAL = errors.New("hash: transactions require Options.WAL")
	// ErrSharedLog reports a per-table operation — opening the file on its
	// own, Begin — on a table whose write-ahead log belongs to a sharded
	// database (Options.SharedLog): commits go through the owner.
	ErrSharedLog = errors.New("hash: table's write-ahead log is owned by a sharded database")
	// ErrTxnDone reports reuse of a committed or rolled-back Txn.
	ErrTxnDone = errors.New("hash: transaction already committed or rolled back")
)

// Txn is an atomic batch of puts and deletes. It is not safe for
// concurrent use by multiple goroutines; independent Txns may commit
// concurrently.
type Txn struct {
	t    *Table
	ops  []wal.Op
	led  *oplog.Ledger
	done bool
}

// SetOplog attaches an op ledger to the transaction. Commit charges its
// WAL marshal/fsync, latch wait, and split-assist time to the ledger.
// A nil ledger (the default) keeps the commit path unchanged.
func (x *Txn) SetOplog(led *oplog.Ledger) { x.led = led }

// Begin starts a transaction. The table must have been opened with
// Options.WAL.
func (t *Table) Begin() (*Txn, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkWritable(); err != nil {
		return nil, err
	}
	if t.wal == nil {
		return nil, ErrNoWAL
	}
	if t.walShared {
		return nil, ErrSharedLog
	}
	if err := t.walDamaged(); err != nil {
		return nil, err
	}
	return &Txn{t: t}, nil
}

// Put buffers an insert-or-replace of key → data. Bytes are copied, so
// the caller may reuse its slices.
func (x *Txn) Put(key, data []byte) error {
	if x.done {
		return ErrTxnDone
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	x.ops = append(x.ops, wal.Op{
		Key:  append([]byte(nil), key...),
		Data: append([]byte(nil), data...),
	})
	return nil
}

// Delete buffers a delete of key. Deleting an absent key is not an
// error at commit time — the redo-log semantics are "ensure absent".
func (x *Txn) Delete(key []byte) error {
	if x.done {
		return ErrTxnDone
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	x.ops = append(x.ops, wal.Op{Delete: true, Key: append([]byte(nil), key...)})
	return nil
}

// Len returns the number of buffered ops.
func (x *Txn) Len() int { return len(x.ops) }

// Rollback discards the transaction. The table is untouched — no log
// record, no page mutation.
func (x *Txn) Rollback() error {
	if x.done {
		return ErrTxnDone
	}
	x.done = true
	x.ops = nil
	return nil
}

// Commit makes the transaction durable and visible: log append, log
// fsync, then application under the bucket latches. An empty transaction
// commits trivially. On a log error nothing was applied and the table is
// unchanged; if application fails after the log fsync (an I/O error from
// the buffer pool mid-transaction), the commit is durable but only
// partially visible — the table poisons its transaction path and keeps
// the log so that a reopen (or Recover) replays the commit and
// re-converges.
func (x *Txn) Commit() error {
	if x.done {
		return ErrTxnDone
	}
	x.done = true
	if len(x.ops) == 0 {
		return nil
	}
	t := x.t
	seq0 := t.tr.Next()
	err := t.commitOps(x.ops, x.led)
	x.led.SetTraceSpan(seq0, t.tr.Next())
	return err
}

// commitReady gates both halves of a commit. The caller holds t.mu
// shared.
func (t *Table) commitReady() error {
	if err := t.checkWritable(); err != nil {
		return err
	}
	if t.wal == nil {
		return ErrNoWAL
	}
	return t.walDamaged()
}

// commitOps is the sidecar-log commit: make the ops durable in this
// table's own log, then apply them.
func (t *Table) commitOps(ops []wal.Op, led *oplog.Ledger) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.commitReady(); err != nil {
		return err
	}

	commitLSN, end, err := t.wal.AppendOp(led, ops)
	if err != nil {
		return fmt.Errorf("hash: txn append: %w", err)
	}
	if err := t.wal.SyncToOp(led, end); err != nil {
		return fmt.Errorf("hash: txn fsync: %w", err)
	}
	return t.applyCommitted(commitLSN, ops, led)
}

// ApplyCommitted applies ops — this table's share of a transaction that
// is already durable in the shared log (Options.SharedLog) at commitLSN —
// under the striped latches, as one unit. It is the second half of
// Commit, exposed for the log's owner and nothing else: the owner has
// appended and fsynced before calling, and keeps the commit in the log
// until a Checkpoint at or above commitLSN has succeeded on every table
// it touched. On error the table refuses further commits (the damage
// poison) and the owner must do the same for the whole database.
func (t *Table) ApplyCommitted(led *oplog.Ledger, commitLSN uint64, ops []wal.Op) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.walShared {
		return fmt.Errorf("hash: ApplyCommitted: %w", ErrNoWAL)
	}
	if err := t.commitReady(); err != nil {
		return err
	}
	return t.applyCommitted(commitLSN, ops, led)
}

// applyCommitted applies a durable commit: the ops are one write set
// through applySet (batch.go) — every bucket involved is write-latched
// together, so the transaction becomes visible as a unit — and the LSN is
// stamped once they are in. Everything here is replayable from the log,
// so a failure must freeze appliedLSN (via the damage poison) rather than
// roll anything back. The caller holds t.mu shared.
func (t *Table) applyCommitted(commitLSN uint64, ops []wal.Op, led *oplog.Ledger) error {
	set := make([]writeOp, len(ops))
	for i := range ops {
		set[i] = writeOp{key: ops[i].Key, data: ops[i].Data, del: ops[i].Delete}
	}
	if _, err := t.applySet(set, true, led); err != nil {
		err = fmt.Errorf("hash: committed transaction %d applied partially (reopen or Recover to converge): %w", commitLSN, err)
		t.setWALDamaged(err)
		return err
	}
	if t.walShared {
		t.raiseAppliedLSN(commitLSN)
	} else {
		t.appliedLSN.Store(commitLSN)
		t.m.txnCommits.Inc()
	}
	_, err := t.settleSplits(led)
	return err
}

// Checkpoint is Sync for a shared-log table: the two-phase flush, with
// lsn stamped into the header as the checkpoint LSN — every commit at or
// below it that touches this table is in the pages once it returns. Only
// the log's owner can know such an LSN (it must have quiesced its
// committers first), which is why plain Sync on a shared-log table leaves
// the stamp alone. The log itself is untouched.
func (t *Table) Checkpoint(lsn uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkOpen(); err != nil {
		return err
	}
	if !t.walShared {
		return fmt.Errorf("hash: Checkpoint: %w", ErrNoWAL)
	}
	if t.readonly {
		return nil
	}
	// A table frozen by a partial apply keeps its old stamp: the failed
	// commit must stay above it so that recovery replays it.
	if lsn > t.hdr.walLSN && !t.needsRecovery && t.walDamaged() == nil {
		t.hdr.walLSN = lsn
		t.dirtyHdr.Store(true)
		t.raiseAppliedLSN(lsn)
	}
	return t.syncLocked()
}

// raiseAppliedLSN moves a shared-log table's appliedLSN up to lsn.
// Committers sharing the log apply out of LSN order, so it keeps the
// max; the figure is informational — the owner picks checkpoint LSNs.
func (t *Table) raiseAppliedLSN(lsn uint64) {
	for {
		cur := t.appliedLSN.Load()
		if cur >= lsn || t.appliedLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}
