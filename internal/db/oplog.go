package db

import (
	"errors"

	"unixhash/internal/core"
	"unixhash/internal/oplog"
)

// Per-request attribution at the db layer. The hash adapters (single
// table and sharded) implement OpDB: every uniform operation has an
// ...Op form taking an op ledger, threaded down through the table's
// latch, WAL, filter and buffer-pool hooks, and a nil ledger means
// attribution is off. That is the one way down: the plain DB methods of
// the hash shapes are these forms with a nil ledger, and the caller that
// owns ledgers and a Recorder (the network server) calls them directly.

// OpDB is the optional ledger-carrying face of a DB. A type assertion
// feature-tests it; both hash shapes implement it, a caller's own DB
// decorator need not.
type OpDB interface {
	// GetBufOp is GetBuf with per-phase attribution into led.
	GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error)
	// PutOp is Put with attribution.
	PutOp(led *oplog.Ledger, key, data []byte) error
	// PutBatchOp is PutBatch with attribution; a batch that spans shards
	// charges the one ledger from several goroutines concurrently.
	PutBatchOp(led *oplog.Ledger, pairs []Pair) error
	// DeleteOp is Delete with attribution.
	DeleteOp(led *oplog.Ledger, key []byte) error
	// BeginOp is Begin with the ledger pre-attached: Commit charges its
	// WAL marshal, fsync (group-commit join vs lead), latch and split
	// time to led.
	BeginOp(led *oplog.Ledger) (Txn, error)
}

// --- hash adapter ---

func (d *hashDB) GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error) {
	v, err := d.t.GetBufOp(led, key, dst)
	if errors.Is(err, core.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

func (d *hashDB) PutOp(led *oplog.Ledger, key, data []byte) error {
	return d.t.PutOp(led, key, data)
}

func (d *hashDB) PutBatchOp(led *oplog.Ledger, pairs []Pair) error {
	return d.t.PutBatchOp(led, pairs)
}

func (d *hashDB) DeleteOp(led *oplog.Ledger, key []byte) error {
	err := d.t.DeleteOp(led, key)
	if errors.Is(err, core.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

func (d *hashDB) BeginOp(led *oplog.Ledger) (Txn, error) {
	x, err := d.t.Begin()
	if err != nil {
		return nil, err
	}
	x.SetOplog(led)
	return x, nil
}

// --- sharded adapter ---

// route picks the shard for key, counting the routing decision on led
// and stamping the ledger with the destination shard.
func (s *Sharded) route(led *oplog.Ledger, key []byte) *hashDB {
	if led == nil {
		return s.shard(key)
	}
	i := 0
	if len(s.shards) > 1 {
		i = shardOf(key, len(s.shards))
	}
	led.Count(oplog.PhaseRoute)
	led.SetShard(i)
	return s.shards[i]
}

func (s *Sharded) GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error) {
	return s.route(led, key).GetBufOp(led, key, dst)
}

func (s *Sharded) PutOp(led *oplog.Ledger, key, data []byte) error {
	return s.route(led, key).PutOp(led, key, data)
}

func (s *Sharded) DeleteOp(led *oplog.Ledger, key []byte) error {
	return s.route(led, key).DeleteOp(led, key)
}

// PutBatchOp counts the routing pass on the ledger. A batch for one
// shard names it, as a single-key op does; one that spans shards keeps
// shard -1 (no single destination) and its sub-batches charge their
// latch/split/pool phases concurrently (the ledger's counters are atomic).
func (s *Sharded) PutBatchOp(led *oplog.Ledger, pairs []Pair) error {
	n, dest := len(s.shards), 0
	if n > 1 {
		led.Count(oplog.PhaseRoute)
		for j := range pairs {
			if i := shardOf(pairs[j].Key, n); j == 0 {
				dest = i
			} else if i != dest {
				dest = -1
				break
			}
		}
	}
	if dest >= 0 {
		led.SetShard(dest)
		return s.shards[dest].PutBatchOp(led, pairs)
	}
	b, _ := s.batches.Get().(*shardBatch)
	if b == nil {
		b = &shardBatch{per: make([][]Pair, n), errs: make([]error, n)}
	}
	for _, p := range pairs {
		i := shardOf(p.Key, n)
		b.per[i] = append(b.per[i], p)
	}
	// Each sub-batch notes its own ring window on the ledger; the window
	// covering all of them is set once they have joined.
	seq0 := s.tr.Next()
	err := s.fanOut(b.errs, func(i int) bool { return len(b.per[i]) > 0 },
		func(i int, sh *hashDB) error { return sh.PutBatchOp(led, b.per[i]) })
	led.SetTraceSpan(seq0, s.tr.Next())
	for i := range b.per {
		clear(b.per[i]) // the pool keeps no caller's bytes
		b.per[i] = b.per[i][:0]
	}
	clear(b.errs)
	s.batches.Put(b)
	return err
}

// BeginOp attaches led to the transaction: Commit charges its one log
// append and one fsync (lead or join) and each touched shard's latch
// wait to it, and counts the routing split — once per wire transaction.
func (s *Sharded) BeginOp(led *oplog.Ledger) (Txn, error) {
	switch {
	case s.readonly:
		return nil, core.ErrReadOnly
	case s.log == nil:
		return nil, core.ErrNoWAL
	}
	x, err := core.Begin(s.log)
	if err != nil {
		return nil, err
	}
	x.SetOplog(led)
	return x, nil
}

// Static interface checks: both hash shapes carry ledgers.
var (
	_ OpDB = (*hashDB)(nil)
	_ OpDB = (*Sharded)(nil)
)
