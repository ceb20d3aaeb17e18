package core

import (
	"errors"
	"fmt"

	"unixhash/internal/oplog"
	"unixhash/internal/wal"
)

// Transactions. Begin returns a Txn that buffers intent records; nothing
// touches the table until Commit. Commit hands the ops to the table's log
// owner (wal.Owner), which appends every op plus a commit frame in one
// contiguous write, fsyncs the log (sharing the fsync with concurrent
// committers), and only then applies the ops to the live table through
// ApplyCommitted as one write set — the same applySet (batch.go) that
// serves Put, Delete and PutBatch, so all buckets involved are
// write-latched together, in ascending stripe order, and the transaction
// becomes visible as a unit. Durability comes from the log: after Commit
// returns, a crash at any point is repaired by Recover replaying the
// committed transactions past the last checkpoint. The pages themselves
// reach the store lazily, at the next Sync (now a checkpoint) — which is
// why a durable single Put through a transaction costs one sequential log
// append instead of a full page flush.

var (
	// ErrNoWAL reports a transaction attempt on a table opened without
	// Options.WAL.
	ErrNoWAL = errors.New("hash: transactions require Options.WAL")
	// ErrSharedLog reports a per-table operation — opening the file on its
	// own, Begin — on a table whose write-ahead log belongs to a sharded
	// database (Options.SharedLog): commits go through the database.
	ErrSharedLog = errors.New("hash: table's write-ahead log is owned by a sharded database")
	// ErrTxnDone reports reuse of a committed or rolled-back Txn.
	ErrTxnDone = errors.New("hash: transaction already committed or rolled back")
)

// Txn is an atomic batch of puts and deletes, committed through a log
// owner: a table's sidecar log (Table.Begin) or a sharded database's
// (Begin). It is not safe for concurrent use by multiple goroutines;
// independent Txns may commit concurrently.
type Txn struct {
	log  *wal.Owner
	ops  []wal.Op
	buf  []byte // the ops' key and data bytes, copied in
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
	switch {
	case t.sharedLog:
		return nil, ErrSharedLog
	case t.log == nil:
		return nil, ErrNoWAL
	}
	return Begin(t.log)
}

// Begin starts a transaction whose Commit goes through log, unless log
// already refuses commits (closed, or damaged by a failed commit).
func Begin(log *wal.Owner) (*Txn, error) {
	if err := log.Ready(); err != nil {
		return nil, err
	}
	return &Txn{log: log}, nil
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
	x.ops = append(x.ops, wal.Op{Key: x.copy(key), Data: x.copy(data)})
	return nil
}

// copy appends b to the transaction's bytes and returns the copy; earlier
// ops keep a regrown buffer's old block alive.
func (x *Txn) copy(b []byte) []byte {
	n := len(x.buf)
	x.buf = append(x.buf, b...)
	return x.buf[n:len(x.buf):len(x.buf)]
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
	x.ops = append(x.ops, wal.Op{Delete: true, Key: x.copy(key)})
	return nil
}

// Len returns the number of buffered ops.
func (x *Txn) Len() int { return len(x.ops) }

// Rollback discards the transaction. The tables are untouched — no log
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
// commits trivially. A log error applies nothing; if application fails
// after the log fsync (an I/O error from the buffer pool mid-transaction),
// the commit is durable but only partially visible. Either way the log's
// owner refuses every later commit and keeps the log, so that a reopen
// (or Recover) replays the commit and re-converges.
func (x *Txn) Commit() error {
	if x.done {
		return ErrTxnDone
	}
	x.done = true
	if len(x.ops) == 0 {
		return nil
	}
	return x.log.Commit(x.led, x.ops)
}

// ApplyCommitted applies ops — this table's share of a transaction that
// is already durable in the log at commitLSN — under the striped latches,
// as one unit (wal.Table). It is the second half of a commit, for the
// log's owner and nothing else: the owner has appended and fsynced
// before calling, and keeps the commit in the log until a Checkpoint at
// or above commitLSN has succeeded on every table it touched. The ops are
// one write set through applySet (batch.go), and the LSN is noted once
// they are in. Everything here is replayable from the log, so a failure
// is not rolled back: the owner refuses further commits instead.
func (t *Table) ApplyCommitted(led *oplog.Ledger, commitLSN uint64, ops []wal.Op) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkWritable(); err != nil {
		return err
	}
	sp := writeSet(len(ops))
	for i := range ops {
		(*sp)[i] = writeOp{key: ops[i].Key, data: ops[i].Data, del: ops[i].Delete}
	}
	_, err := t.applySet(*sp, true, led)
	releaseWriteSet(sp)
	if err != nil {
		return fmt.Errorf("hash: committed transaction %d applied partially (reopen or Recover to converge): %w", commitLSN, err)
	}
	t.raiseAppliedLSN(commitLSN)
	_, err = t.settleSplits(led)
	return err
}

// Checkpoint is Sync with lsn stamped into the header as the checkpoint
// LSN (wal.Table): every commit at or below it is in the pages once it
// returns. Only the log's owner can know such an LSN (it must have
// quiesced its committers first), which is why a plain Sync of a shard
// leaves the stamp alone. The log itself is untouched.
func (t *Table) Checkpoint(lsn uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkOpen(); err != nil {
		return err
	}
	if t.readonly {
		return nil
	}
	if lsn > t.hdr.walLSN && !t.needsRecovery {
		t.hdr.walLSN = lsn
		t.dirtyHdr.Store(true)
		t.raiseAppliedLSN(lsn)
	}
	return t.syncLocked()
}

// raiseAppliedLSN moves appliedLSN up to lsn. Committers apply out of LSN
// order, so it keeps the max; the figure is informational — the owner
// picks checkpoint LSNs.
func (t *Table) raiseAppliedLSN(lsn uint64) {
	for {
		cur := t.appliedLSN.Load()
		if cur >= lsn || t.appliedLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}
