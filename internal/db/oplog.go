package db

import "unixhash/internal/oplog"

// Per-request attribution at the db layer. The hash shapes implement
// OpDB: every uniform operation has an ...Op form taking an op ledger,
// threaded down through the table's latch, WAL, filter and buffer-pool
// hooks, and a nil ledger means attribution is off. That is the one way
// down: the plain DB methods of the hash shapes are these forms with a
// nil ledger, and the caller that owns ledgers and a Recorder (the
// network server) calls them directly. The db layer only routes: the
// recorder notes a command's trace span, and a transaction's ledger is
// attached by its owner at commit (core.Txn.SetOplog).

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
}

// route picks the shard for key, counting the routing decision on led
// and stamping the ledger with the destination shard (both nil-safe).
func (s *Sharded) route(led *oplog.Ledger, key []byte) *hashDB {
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
	err := s.fanOut(b.errs, func(i int) bool { return len(b.per[i]) > 0 },
		func(i int, sh *hashDB) error { return sh.PutBatchOp(led, b.per[i]) })
	for i := range b.per {
		clear(b.per[i]) // the pool keeps no caller's bytes
		b.per[i] = b.per[i][:0]
	}
	clear(b.errs)
	s.batches.Put(b)
	return err
}

// Static interface checks: both hash shapes carry ledgers.
var (
	_ OpDB = (*hashDB)(nil)
	_ OpDB = (*Sharded)(nil)
)
