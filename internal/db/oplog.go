package db

import (
	"errors"
	"sync"

	"unixhash/internal/core"
	"unixhash/internal/oplog"
)

// Per-request attribution at the db layer. The hash adapters (single
// table and sharded) implement OpDB: every uniform operation has an
// ...Op variant taking an op ledger, threaded down through the table's
// latch, WAL, filter and buffer-pool hooks. Callers that manage their
// own ledgers (the network server) use OpDB directly; embedded callers
// wrap a database once with EnableOplog and get a ledger per call,
// recorded into a shared Recorder, with the ledgers pooled so the
// instrumented path stays allocation-free after warm-up.

// OpDB is the optional ledger-carrying face of a DB. A type assertion
// feature-tests it; the btree and recno adapters do not implement it
// (their operations have no phases to attribute).
type OpDB interface {
	// GetBufOp is GetBuf with per-phase attribution into led.
	GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error)
	// PutOp is Put with attribution.
	PutOp(led *oplog.Ledger, key, data []byte) error
	// PutBatchOp is PutBatch with attribution; on a sharded database the
	// fan-out goroutines charge the one ledger concurrently.
	PutBatchOp(led *oplog.Ledger, pairs []Pair) error
	// DeleteOp is Delete with attribution.
	DeleteOp(led *oplog.Ledger, key []byte) error
	// BeginOp is Begin with the ledger pre-attached: Commit charges its
	// WAL marshal, fsync (group-commit join vs lead), latch and split
	// time to led.
	BeginOp(led *oplog.Ledger) (Txn, error)
}

// oplogTxn is the ledger-attachment hook a transaction may offer;
// core.Txn and shardedTxn both do.
type oplogTxn interface{ SetOplog(*oplog.Ledger) }

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

// route picks the shard for key, charging the routing decision to led
// and stamping the ledger with the destination shard.
func (s *Sharded) route(led *oplog.Ledger, key []byte) *hashDB {
	if led == nil {
		return s.shard(key)
	}
	st := oplog.Clock()
	i := 0
	if len(s.shards) > 1 {
		i = shardOf(key, len(s.shards))
	}
	led.Since(oplog.PhaseRoute, st)
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

// PutBatchOp partitions like PutBatch; the partition pass is charged to
// the ledger as routing and the per-shard sub-batches then charge their
// latch/split/pool phases concurrently (the ledger's counters are
// atomic). The ledger's shard stays -1 — a cross-shard batch has no
// single destination — while the phase totals still attribute the time.
func (s *Sharded) PutBatchOp(led *oplog.Ledger, pairs []Pair) error {
	if led == nil {
		return s.PutBatch(pairs)
	}
	if len(s.shards) == 1 {
		led.SetShard(0)
		return s.shards[0].PutBatchOp(led, pairs)
	}
	st := oplog.Clock()
	per := splitByShard(pairs, len(s.shards), pairKey)
	led.Since(oplog.PhaseRoute, st)
	return s.fanOut(func(i int, sh *hashDB) error {
		if len(per[i]) == 0 {
			return nil
		}
		return sh.PutBatchOp(led, per[i])
	})
}

func (s *Sharded) BeginOp(led *oplog.Ledger) (Txn, error) {
	x, err := s.Begin()
	if err != nil {
		return nil, err
	}
	x.(*shardedTxn).led = led
	return x, nil
}

// SetOplog attaches led to the transaction: Commit charges its one log
// append and one fsync (lead or join), the routing split and each touched
// shard's latch wait to it — once per wire transaction.
func (x *shardedTxn) SetOplog(led *oplog.Ledger) { x.led = led }

// --- instrumented wrapper ---

// ledgerPool recycles ledgers for the EnableOplog wrapper; a Ledger is
// pointer-free, so pooling keeps the instrumented path allocation-free
// after warm-up.
var ledgerPool = sync.Pool{New: func() any { return new(oplog.Ledger) }}

// EnableOplog wraps d so that every call runs under a fresh op ledger
// recorded into rec. The wrapper implements DB (and OpDB, forwarding
// caller-supplied ledgers untouched) and is transparent to ServeTelemetry,
// which unwraps it for registry and tracer mounting and serves rec on
// /debug/oplog. A database whose method has no attribution hooks (btree,
// recno) or a nil rec returns d unchanged.
func EnableOplog(d DB, rec *oplog.Recorder) DB {
	ops, ok := d.(OpDB)
	if !ok || rec == nil {
		return d
	}
	return &opDB{DB: d, ops: ops, rec: rec}
}

// OplogRecorder returns the recorder d records into, if d is an
// EnableOplog wrapper (nil otherwise).
func OplogRecorder(d DB) *oplog.Recorder {
	if o, ok := d.(*opDB); ok {
		return o.rec
	}
	return nil
}

type opDB struct {
	DB  // pass-through for Seq, Len, Sync, Stats, Close, PutNew
	ops OpDB
	rec *oplog.Recorder
}

// run executes op under a pooled ledger and records it.
func (o *opDB) run(cmd oplog.Cmd, key []byte, op func(led *oplog.Ledger) error) error {
	led := ledgerPool.Get().(*oplog.Ledger)
	led.StartOp(cmd, key)
	err := op(led)
	led.Finish()
	o.rec.Record(led)
	ledgerPool.Put(led)
	return err
}

func (o *opDB) Get(key []byte) ([]byte, error) {
	var v []byte
	err := o.run(oplog.CmdGet, key, func(led *oplog.Ledger) error {
		var err error
		v, err = o.ops.GetBufOp(led, key, nil)
		return err
	})
	return v, err
}

func (o *opDB) GetBuf(key, dst []byte) ([]byte, error) {
	var v []byte
	err := o.run(oplog.CmdGet, key, func(led *oplog.Ledger) error {
		var err error
		v, err = o.ops.GetBufOp(led, key, dst)
		return err
	})
	return v, err
}

func (o *opDB) Put(key, data []byte) error {
	return o.run(oplog.CmdPut, key, func(led *oplog.Ledger) error {
		return o.ops.PutOp(led, key, data)
	})
}

func (o *opDB) PutBatch(pairs []Pair) error {
	var k []byte
	if len(pairs) > 0 {
		k = pairs[0].Key
	}
	return o.run(oplog.CmdBatch, k, func(led *oplog.Ledger) error {
		return o.ops.PutBatchOp(led, pairs)
	})
}

func (o *opDB) Delete(key []byte) error {
	return o.run(oplog.CmdDelete, key, func(led *oplog.Ledger) error {
		return o.ops.DeleteOp(led, key)
	})
}

// Begin returns a transaction whose Commit runs under a recorded
// ledger. Buffering (Put/Delete on the Txn) is not timed — the ledger
// brackets the commit, where the phases live.
func (o *opDB) Begin() (Txn, error) {
	x, err := o.DB.Begin()
	if err != nil {
		return nil, err
	}
	at, ok := x.(oplogTxn)
	if !ok {
		return x, nil
	}
	return &opTxn{Txn: x, attach: at.SetOplog, rec: o.rec}, nil
}

// Forward caller-managed ledgers untouched (the wrapper still satisfies
// OpDB, so stacking EnableOplog over a server-managed database works).
func (o *opDB) GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error) {
	return o.ops.GetBufOp(led, key, dst)
}
func (o *opDB) PutOp(led *oplog.Ledger, key, data []byte) error {
	return o.ops.PutOp(led, key, data)
}
func (o *opDB) PutBatchOp(led *oplog.Ledger, pairs []Pair) error {
	return o.ops.PutBatchOp(led, pairs)
}
func (o *opDB) DeleteOp(led *oplog.Ledger, key []byte) error {
	return o.ops.DeleteOp(led, key)
}
func (o *opDB) BeginOp(led *oplog.Ledger) (Txn, error) { return o.ops.BeginOp(led) }

// unwrap returns the database under an EnableOplog wrapper for concrete
// type dispatch (ServeTelemetry).
func unwrap(d DB) DB {
	if o, ok := d.(*opDB); ok {
		return o.DB
	}
	return d
}

type opTxn struct {
	Txn
	attach func(*oplog.Ledger)
	rec    *oplog.Recorder
}

func (x *opTxn) Commit() error {
	led := ledgerPool.Get().(*oplog.Ledger)
	led.StartOp(oplog.CmdTxn, nil)
	x.attach(led)
	err := x.Txn.Commit()
	x.attach(nil)
	led.Finish()
	x.rec.Record(led)
	ledgerPool.Put(led)
	return err
}

// Static interface checks: both hash shapes carry ledgers.
var (
	_ OpDB = (*hashDB)(nil)
	_ OpDB = (*Sharded)(nil)
	_ OpDB = (*opDB)(nil)
	_ DB   = (*opDB)(nil)
)
