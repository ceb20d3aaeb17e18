package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/pagefile"
	"unixhash/internal/server"
	"unixhash/internal/wal"
)

// The traced stack. db.OpenSharded refuses a caller-supplied Store, so
// the benchmark shards for itself: tracedDB routes keys over nShards
// single-table databases exactly as db.Sharded does (same router hash,
// concurrent per-shard sub-batches, per-shard sub-transactions), each
// opened on a traced page store and a traced log device over the real
// file implementations.

// shardOf is db.Sharded's router: FNV-1a finished with a murmur mix.
func shardOf(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % nShards)
}

// tracedDB is the db.DB handed to server.Options.DB. It embeds the
// interface so methods the server never calls need no forwarding; only
// what the wire protocol reaches is routed.
type tracedDB struct {
	db.DB  // nil: any method not overridden below would panic, none is called
	shards [nShards]db.DB
	tr     *tracer
	perKey int // preloaded keys per connection, to name a key's owner
	// seq[c] is connection c's next op number as seen at this boundary,
	// ncall[c] its next db call number. Only the server goroutine serving
	// c's keys advances them.
	seq   [nConns]int32
	ncall [nConns]int32
	// Counts taken at the boundary, for ratios.
	calls, putReqs, putBatches atomic.Int64
}

// ownerOf names the load-generator connection that owns key, -1 for a
// key no connection's generator produces.
func (d *tracedDB) ownerOf(key []byte) int8 {
	id, ok := keyID(key)
	if !ok {
		return -1
	}
	c := uint32(nConns)
	switch {
	case id < uint32(nConns*d.perKey):
		c = id / uint32(d.perKey)
	case id >= absentBase:
		c = (id - absentBase) / absentStride
	case id >= newKeyBase:
		c = (id - newKeyBase) / newKeyStride
	}
	if c >= nConns {
		return -1
	}
	return int8(c)
}

// record files a db span under its connection, stamping and advancing
// the connection's op number by nops.
func (d *tracedDB) record(s span, conn int8, nops int32) {
	if !d.tr.on.Load() {
		return
	}
	s.conn, s.op, s.nops, s.parent, s.call = conn, -1, nops, -1, -1
	list := &d.tr.db[nConns]
	if conn >= 0 {
		s.op, s.call = d.seq[conn], d.ncall[conn]
		d.seq[conn] += nops
		list = &d.tr.db[conn]
	}
	list.add(s)
}

// enter posts connection conn's current db call as inside shard sh, on
// the goroutine whose stack holds mark: the caller's own stackMark(),
// taken in the frame that goes on to call into the shard, so that every
// frame below that call is below the mark. leave withdraws it.
func (d *tracedDB) enter(sh int, conn int8, mark uintptr) {
	if conn >= 0 && d.tr.on.Load() {
		d.tr.post(sh, conn, d.ncall[conn], mark)
	}
}

func (d *tracedDB) leave(sh int, conn int8) { d.tr.unpost(sh, conn) }

// done closes connection conn's current db call: the next one gets a
// new number.
func (d *tracedDB) done(conn int8) {
	if conn >= 0 && d.tr.on.Load() {
		d.ncall[conn]++
	}
}

func (d *tracedDB) count(calls, putReqs, putBatches int64) {
	if !d.tr.on.Load() {
		return
	}
	d.calls.Add(calls)
	d.putReqs.Add(putReqs)
	d.putBatches.Add(putBatches)
}

func (d *tracedDB) GetBuf(key, dst []byte) ([]byte, error) {
	sh, conn := shardOf(key), d.ownerOf(key)
	st := now()
	d.enter(sh, conn, stackMark())
	v, err := d.shards[sh].GetBuf(key, dst)
	d.leave(sh, conn)
	d.record(span{name: spDBGet, shards: 1 << sh, start: st, end: now()}, conn, 1)
	d.done(conn)
	d.count(1, 0, 0)
	return v, err
}

func (d *tracedDB) Delete(key []byte) error {
	sh, conn := shardOf(key), d.ownerOf(key)
	st := now()
	d.enter(sh, conn, stackMark())
	err := d.shards[sh].Delete(key)
	d.leave(sh, conn)
	d.record(span{name: spDBDelete, shards: 1 << sh, start: st, end: now()}, conn, 1)
	d.done(conn)
	d.count(1, 0, 0)
	return err
}

func (d *tracedDB) PutBatch(pairs []db.Pair) error {
	st := now()
	conn := d.ownerOf(pairs[0].Key)
	var per [nShards][]db.Pair
	for _, p := range pairs {
		sh := shardOf(p.Key)
		per[sh] = append(per[sh], p)
	}
	var errs [nShards]error
	var wg sync.WaitGroup
	mask := uint8(0)
	for sh := range per {
		if len(per[sh]) == 0 {
			continue
		}
		mask |= 1 << sh
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			growStack(sh)
			d.enter(sh, conn, stackMark()) // this goroutine's stack is the one the I/O runs on
			errs[sh] = d.shards[sh].PutBatch(per[sh])
			d.leave(sh, conn)
		}(sh)
	}
	wg.Wait()
	d.record(span{name: spDBPutBatch, shards: mask, start: st, end: now()}, conn, int32(len(pairs)))
	d.done(conn)
	d.count(1, int64(len(pairs)), 1)
	return errors.Join(errs[:]...)
}

func (d *tracedDB) Begin() (db.Txn, error) {
	st := now()
	// Like db.Sharded, surface "no WAL" here rather than at the first op.
	probe, err := d.shards[0].Begin()
	if err != nil {
		return nil, err
	}
	x := &tracedTxn{d: d, conn: -1, beginStart: st, beginEnd: now()}
	x.sub[0] = probe
	d.count(1, 0, 0)
	return x, nil
}

func (d *tracedDB) Stats() (db.Stats, error) {
	agg := db.Stats{Method: db.Hash}
	for _, sh := range d.shards {
		st, err := sh.Stats()
		if err != nil {
			return db.Stats{}, err
		}
		agg.Keys += st.Keys
		agg.Shards = append(agg.Shards, st)
	}
	return agg, nil
}

func (d *tracedDB) Close() error {
	var errs [nShards]error
	for i, sh := range d.shards {
		errs[i] = sh.Close()
	}
	return errors.Join(errs[:]...)
}

// tracedTxn routes a transaction's ops to per-shard sub-transactions
// and commits them in shard order, like db.Sharded's. Its connection is
// learnt from the first key, so the Begin span is filed late.
type tracedTxn struct {
	d                    *tracedDB
	sub                  [nShards]db.Txn
	conn                 int8
	mask                 uint8
	beginStart, beginEnd int64
	pending              []span
}

func (x *tracedTxn) forKey(key []byte) (db.Txn, error) {
	if x.conn < 0 {
		x.conn = x.d.ownerOf(key)
	}
	sh := shardOf(key)
	x.mask |= 1 << sh
	if x.sub[sh] == nil {
		t, err := x.d.shards[sh].Begin()
		if err != nil {
			return nil, err
		}
		x.sub[sh] = t
	}
	return x.sub[sh], nil
}

func (x *tracedTxn) Put(key, data []byte) error {
	st := now()
	t, err := x.forKey(key)
	if err == nil {
		err = t.Put(key, data)
	}
	x.pending = append(x.pending, span{name: spDBTxnOp, start: st, end: now()})
	x.d.count(1, 0, 0)
	return err
}

func (x *tracedTxn) Delete(key []byte) error {
	st := now()
	t, err := x.forKey(key)
	if err == nil {
		err = t.Delete(key)
	}
	x.pending = append(x.pending, span{name: spDBTxnOp, start: st, end: now()})
	x.d.count(1, 0, 0)
	return err
}

func (x *tracedTxn) Commit() error {
	st := now()
	var err error
	for sh, t := range x.sub {
		if t == nil {
			continue
		}
		if err == nil {
			x.d.enter(sh, x.conn, stackMark())
			err = t.Commit()
			x.d.leave(sh, x.conn)
			if err != nil {
				err = fmt.Errorf("commit shard %d: %w", sh, err)
			}
		} else {
			_ = t.Rollback() // an earlier shard failed: drop the rest
		}
	}
	end := now()
	// One txn is one op: its spans share the op number, which advances
	// once, at the commit.
	x.d.record(span{name: spDBTxnBegin, start: x.beginStart, end: x.beginEnd}, x.conn, 0)
	for _, s := range x.pending {
		x.d.record(s, x.conn, 0)
	}
	x.d.record(span{name: spDBTxnCommit, shards: x.mask, start: st, end: end}, x.conn, 1)
	x.d.done(x.conn)
	x.d.count(1, 0, 0)
	return err
}

func (x *tracedTxn) Rollback() error {
	var errs []error
	for _, t := range x.sub {
		if t != nil {
			errs = append(errs, t.Rollback())
		}
	}
	return errors.Join(errs...)
}

// tracedStore is the pagefile.Store handed to core.Options.Store. The
// vector methods are forwarded so the pool's sorted flush and chain
// read-ahead behave as they do on a bare FileStore.
type tracedStore struct {
	*pagefile.FileStore
	tr *tracer
	sh int
}

func (s *tracedStore) rec(n spanName, st int64, bytes int) {
	s.tr.leaf(&s.tr.store[s.sh], s.sh, n, st, bytes)
}

func (s *tracedStore) ReadPage(pageno uint32, buf []byte) error {
	st := now()
	err := s.FileStore.ReadPage(pageno, buf)
	s.rec(spStoreRead, st, len(buf))
	return err
}

func (s *tracedStore) ReadPages(pageno uint32, buf []byte) error {
	st := now()
	err := s.FileStore.ReadPages(pageno, buf)
	s.rec(spStoreReadV, st, len(buf))
	return err
}

func (s *tracedStore) WritePage(pageno uint32, buf []byte) error {
	st := now()
	err := s.FileStore.WritePage(pageno, buf)
	s.rec(spStoreWrite, st, len(buf))
	return err
}

func (s *tracedStore) WritePages(pageno uint32, buf []byte) error {
	st := now()
	err := s.FileStore.WritePages(pageno, buf)
	s.rec(spStoreWriteV, st, len(buf))
	return err
}

func (s *tracedStore) Sync() error {
	st := now()
	err := s.FileStore.Sync()
	s.rec(spStoreSync, st, 0)
	return err
}

// tracedDev is the wal.Device handed to core.Options.WALDevice.
type tracedDev struct {
	*wal.FileDevice
	tr *tracer
	sh int
}

func (d *tracedDev) rec(n spanName, st int64, bytes int) {
	d.tr.leaf(&d.tr.dev[d.sh], d.sh, n, st, bytes)
}

func (d *tracedDev) ReadAt(p []byte, off int64) (int, error) {
	st := now()
	n, err := d.FileDevice.ReadAt(p, off)
	d.rec(spDevRead, st, n)
	return n, err
}

func (d *tracedDev) WriteAt(p []byte, off int64) (int, error) {
	st := now()
	n, err := d.FileDevice.WriteAt(p, off)
	d.rec(spDevWrite, st, n)
	return n, err
}

func (d *tracedDev) Sync() error {
	st := now()
	err := d.FileDevice.Sync()
	d.rec(spDevSync, st, 0)
	return err
}

func (d *tracedDev) Truncate(size int64) error {
	st := now()
	err := d.FileDevice.Truncate(size)
	d.rec(spDevTruncate, st, 0)
	return err
}

// stack is an in-process server over a database directory: the traced
// assembly when tr is set, db.OpenSharded (what dbserver runs) when not.
type stack struct {
	srv    *server.Server
	dbh    db.DB
	traced *tracedDB // nil when untraced
	stores [nShards]*pagefile.FileStore
	devs   [nShards]*wal.FileDevice
}

func openStack(dir string, cache, keys int, tr *tracer) (*stack, error) {
	s := &stack{}
	if tr == nil {
		d, err := db.OpenSharded(dir, nShards, &db.Config{Hash: &core.Options{
			Bsize: bsize, Ffactor: ffactor, CacheSize: cache, WAL: true,
		}})
		if err != nil {
			return nil, err
		}
		s.dbh = d
	} else {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, err
		}
		td := &tracedDB{tr: tr, perKey: keys / nConns}
		s.traced, s.dbh = td, td
		for i := 0; i < nShards; i++ {
			path := filepath.Join(dir, fmt.Sprintf("shard-%03d.db", i))
			fs, err := pagefile.OpenFile(path, bsize, pagefile.CostModel{})
			if err != nil {
				s.close()
				return nil, err
			}
			s.stores[i] = fs
			fd, err := wal.OpenFileDevice(path + ".wal")
			if err != nil {
				s.close()
				return nil, err
			}
			s.devs[i] = fd
			td.shards[i], err = db.Open("", db.Hash, &db.Config{Hash: &core.Options{
				Bsize: bsize, Ffactor: ffactor, CacheSize: cache,
				Store:     &tracedStore{fs, tr, i},
				WALDevice: &tracedDev{fd, tr, i},
			}})
			if err != nil {
				s.close()
				return nil, err
			}
		}
	}
	srv, err := server.Serve("127.0.0.1:0", server.Options{DB: s.dbh})
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// close drains the server, closes the database (a checkpoint) and then
// the files the benchmark opened itself.
func (s *stack) close() error {
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.traced == nil {
		if s.dbh != nil {
			errs = append(errs, s.dbh.Close())
		}
		return errors.Join(errs...)
	}
	for _, sh := range s.traced.shards {
		if sh != nil {
			errs = append(errs, sh.Close())
		}
	}
	for i := range s.stores {
		if s.stores[i] != nil {
			errs = append(errs, s.stores[i].Close())
		}
		if s.devs[i] != nil {
			errs = append(errs, s.devs[i].Close())
		}
	}
	return errors.Join(errs...)
}
