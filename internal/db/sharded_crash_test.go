package db

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"unixhash/internal/core"
	"unixhash/internal/pagefile"
	"unixhash/internal/wal"
)

// The sharded power-cut matrix: two shards on journaling page stores and
// the one directory log on a journaling device, cut at every instant a
// real power failure could land — inside the single append of a
// transaction that spans both shards (every byte offset), and between
// fsync → apply(shard 0) → apply(shard 1) → shard sync → header stamp →
// log reset. The contract after RecoverSharded:
//
//   - a transaction is all there or not at all, on every shard;
//   - each shard holds its last checkpoint plus every acknowledged commit
//     (plain Puts are volatile until a checkpoint, as on one table);
//   - a shard whose checkpoint completed holds what it synced — replay
//     never rolls a synced plain Put back to a transaction's older value;
//   - a cut exactly on a quiescent point must recover; elsewhere a loud
//     failure is within contract (core's strict gate).
//
// As in core's WAL matrix the cache is large enough that pages move only
// at checkpoints.

const crashShards = 2

func crashConfig(dev wal.Device) *Config {
	return &Config{Hash: &core.Options{Bsize: 128, Ffactor: 4, CacheSize: 1 << 20, WALDevice: dev}}
}

// keyOnShard returns the i'th generated key that routes to shard.
func keyOnShard(shard, i int) []byte {
	for n := 0; ; n++ {
		k := []byte(fmt.Sprintf("k%d-%d", shard, n))
		if shardOf(k, crashShards) == shard {
			if i == 0 {
				return k
			}
			i--
		}
	}
}

// shardPoint is a quiescent moment of the workload: the three journals'
// lengths and the state recovery must reproduce there.
type shardPoint struct {
	s    [crashShards]int // store journal lengths
	d    int              // log journal length
	kind byte             // 'o' open, 'p' plain put, 'c' commit, 's' sync
	want map[string]string
}

type crashRig struct {
	t      *testing.T
	stores [crashShards]*pagefile.CrashStore
	dev    *wal.CrashDevice
	points []shardPoint
}

type txnOp struct {
	key, val []byte // val nil = delete
}

// runCrashWorkload drives plain puts, cross-shard transactions and
// checkpoints, recording a point after each; the database is abandoned
// un-synced so the tail holds commits that live only in the log.
func runCrashWorkload(t *testing.T) *crashRig {
	t.Helper()
	r := &crashRig{t: t, dev: wal.NewCrashDevice()}
	stores := make([]pagefile.Store, crashShards)
	for i := range stores {
		r.stores[i] = pagefile.NewCrash(pagefile.NewMem(128))
		stores[i] = r.stores[i]
	}
	s, _, err := openSharded("", crashShards, crashConfig(r.dev), stores, false)
	if err != nil {
		t.Fatal(err)
	}
	live, durable := map[string]string{}, map[string]string{}
	record := func(kind byte) {
		p := shardPoint{d: r.dev.Len(), kind: kind, want: maps.Clone(durable)}
		for i, cs := range r.stores {
			p.s[i] = cs.Len()
		}
		r.points = append(r.points, p)
	}
	put := func(k []byte, v string) {
		t.Helper()
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		live[string(k)] = v
		record('p')
	}
	commit := func(ops ...txnOp) {
		t.Helper()
		x, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.val == nil {
				err = x.Delete(op.key)
			} else {
				err = x.Put(op.key, op.val)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.val == nil {
				delete(live, string(op.key))
				delete(durable, string(op.key))
			} else {
				live[string(op.key)], durable[string(op.key)] = string(op.val), string(op.val)
			}
		}
		record('c')
	}
	sync := func() {
		t.Helper()
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		durable = maps.Clone(live)
		record('s')
	}
	a, c, e := keyOnShard(0, 0), keyOnShard(0, 1), keyOnShard(0, 2)
	b, d := keyOnShard(1, 0), keyOnShard(1, 1)

	record('o')
	put(e, "seed")
	put(d, "seed")
	sync()
	// The 3-key, 2-shard transaction of the issue.
	commit(txnOp{a, []byte("t1")}, txnOp{b, []byte("t1")}, txnOp{c, []byte("t1")})
	// A plain put over a transaction's key, then the checkpoint that makes
	// it durable: replay of t1 must not undo it.
	put(a, "plain")
	sync()
	commit(txnOp{a, nil}, txnOp{b, []byte("t2")}, txnOp{d, []byte("t2")})
	commit(txnOp{c, []byte("t3")}, txnOp{d, nil})
	put(e, "volatile")
	sync()
	// Tail: commits that never reach a checkpoint.
	commit(txnOp{a, []byte("t4")}, txnOp{b, []byte("t4")}, txnOp{e, []byte("t4")})
	commit(txnOp{b, nil}, txnOp{c, []byte("t5")})
	return r
}

// byShard splits a state map by routing.
func byShard(m map[string]string) [crashShards]map[string]string {
	var out [crashShards]map[string]string
	for i := range out {
		out[i] = map[string]string{}
	}
	for k, v := range m {
		out[shardOf([]byte(k), crashShards)][k] = v
	}
	return out
}

func readSharded(t *testing.T, s *Sharded) map[string]string {
	t.Helper()
	got := map[string]string{}
	c := s.Seq()
	for c.Next() {
		got[string(c.Key())] = string(c.Value())
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// cut is one power-cut instant: a prefix of each journal, with the final
// page write of a store or the next log write optionally torn.
type cut struct {
	s     [crashShards]int
	sTorn [crashShards]int
	d     int
	dTorn int
}

// check materializes one cut, recovers it and verifies the contract.
func (r *crashRig) check(c cut) string {
	t := r.t
	t.Helper()
	stores := make([]pagefile.Store, crashShards)
	for i, cs := range r.stores {
		ms, err := cs.Materialize(c.s[i], c.sTorn[i])
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ms
	}
	dev := r.dev.Materialize(c.d, c.dTorn)

	floor, exact := 0, false
	for i, p := range r.points {
		if p.s[0] <= c.s[0] && p.s[1] <= c.s[1] && p.d <= c.d {
			floor = i
			exact = p.s == c.s && p.d == c.d && c.sTorn == [crashShards]int{} && c.dTorn == 0
		}
	}
	next := min(floor+1, len(r.points)-1)
	lo, hi := r.points[floor], r.points[next]

	s, reports, err := openSharded("", crashShards, crashConfig(dev), stores, true)
	if err != nil {
		if exact {
			t.Fatalf("cut %+v exactly at point %d (%c): recover failed: %v", c, floor, lo.kind, err)
		}
		return "failed-loud"
	}
	defer s.Close()
	got := readSharded(t, s)

	if exact && !maps.Equal(got, lo.want) {
		t.Fatalf("cut %+v exactly at point %d (%c): recovered %v, want %v", c, floor, lo.kind, got, lo.want)
	}
	// Each shard is at its floor state or the in-flight operation's.
	gotBy, loBy, hiBy := byShard(got), byShard(lo.want), byShard(hi.want)
	for i := range gotBy {
		if !maps.Equal(gotBy[i], loBy[i]) && !maps.Equal(gotBy[i], hiBy[i]) {
			t.Fatalf("cut %+v (floor %d, %c→%c): shard %d recovered %v, want %v or %v; reports %v",
				c, floor, lo.kind, hi.kind, i, gotBy[i], loBy[i], hiBy[i], reports)
		}
		// A shard whose sync ran to its end keeps what it synced, whatever
		// the log still holds.
		if hi.kind == 's' && c.s[i] == hi.s[i] && c.sTorn[i] == 0 && !maps.Equal(gotBy[i], hiBy[i]) {
			t.Fatalf("cut %+v: shard %d finished its checkpoint but recovered %v, want %v (replay rolled a synced put back?)",
				c, i, gotBy[i], hiBy[i])
		}
	}
	// A transaction is atomic across shards.
	if hi.kind == 'c' && !maps.Equal(got, lo.want) && !maps.Equal(got, hi.want) {
		t.Fatalf("cut %+v inside commit %d: recovered %v — neither all of the transaction (%v) nor none (%v)",
			c, next, got, hi.want, lo.want)
	}
	if err := Verify(s); err != nil {
		t.Fatalf("cut %+v: post-recovery verify: %v", c, err)
	}
	// The recovered database commits across shards again.
	x, err := s.Begin()
	if err != nil {
		t.Fatalf("cut %+v: post-recovery begin: %v", c, err)
	}
	x.Put(keyOnShard(0, 9), []byte("probe"))
	x.Put(keyOnShard(1, 9), []byte("probe"))
	if err := x.Commit(); err != nil {
		t.Fatalf("cut %+v: post-recovery commit: %v", c, err)
	}
	for _, rep := range reports {
		if rep.WALTxns > 0 {
			return "recovered-replayed"
		}
	}
	for _, rep := range reports {
		if rep.WasDirty {
			return "recovered-dirty"
		}
	}
	return "recovered-clean"
}

// storeCuts enumerates the cut instants of one store between two
// points: every journal prefix, plus a half-torn variant of each page
// write.
func (r *crashRig) storeCuts(i, from, to int) [][2]int {
	var out [][2]int
	evs := r.stores[i].Events()
	for n := from; n <= to; n++ {
		out = append(out, [2]int{n, 0})
		if n > from && !evs[n-1].Sync {
			out = append(out, [2]int{n, len(evs[n-1].Data) / 2})
		}
	}
	return out
}

func TestShardedCrashMatrix(t *testing.T) {
	r := runCrashWorkload(t)
	t.Logf("journals: %d+%d store events, %d log events, %d points", r.stores[0].Len(), r.stores[1].Len(), r.dev.Len(), len(r.points))

	outcomes := map[string]int{}
	for i := 1; i < len(r.points); i++ {
		prev, cur := r.points[i-1], r.points[i]
		outcomes[r.check(cut{s: cur.s, d: cur.d})]++ // exact boundary: must recover

		// Which side moves first is fixed by the protocol: a commit writes
		// the log, then the shards (in shard order; the cross product
		// below is a superset); a checkpoint writes the shards —
		// concurrently, so every pairing of their prefixes is a real
		// instant — and only then the log.
		logFirst := cur.kind == 'c'
		logAt, storesAt := prev.d, cur.s // the side held still while the other sweeps
		if logFirst {
			logAt, storesAt = cur.d, prev.s
		}
		for d := prev.d; d <= cur.d; d++ {
			c := cut{s: storesAt, d: d}
			outcomes[r.check(c)]++
			// Tear the next log write at every byte offset: the single
			// append of a commit, or the header rewrite of a reset.
			for torn := 1; torn < r.dev.NextWriteLen(d) && d < cur.d; torn++ {
				c.dTorn = torn
				outcomes[r.check(c)]++
			}
		}
		for _, c0 := range r.storeCuts(0, prev.s[0], cur.s[0]) {
			for _, c1 := range r.storeCuts(1, prev.s[1], cur.s[1]) {
				outcomes[r.check(cut{
					s:     [crashShards]int{c0[0], c1[0]},
					sTorn: [crashShards]int{c0[1], c1[1]},
					d:     logAt,
				})]++
			}
		}
	}
	t.Logf("outcomes: %v", outcomes)
	for _, k := range []string{"recovered-clean", "recovered-dirty", "recovered-replayed", "failed-loud"} {
		if outcomes[k] == 0 {
			t.Errorf("matrix never produced outcome %q: %v", k, outcomes)
		}
	}
}

// TestShardedReplayKeepsSyncedPlainPut is the matrix's sharpest cell on
// its own: a power cut after both shards stamped their checkpoint but
// before the log was reset. The log still holds transaction t1 (a = t1);
// the pages hold the plain put a = plain that was synced after it. The
// per-shard walLSN filter is what keeps replay from rolling it back.
func TestShardedReplayKeepsSyncedPlainPut(t *testing.T) {
	r := runCrashWorkload(t)
	var at shardPoint
	for i, p := range r.points {
		if p.kind == 's' && p.want[string(keyOnShard(0, 0))] == "plain" {
			at = p
			at.d = r.points[i-1].d // the checkpoint's stores, the log before its reset
			break
		}
	}
	if at.want == nil {
		t.Fatal("workload has no checkpoint holding the plain put")
	}
	stores := make([]pagefile.Store, crashShards)
	for i, cs := range r.stores {
		ms, err := cs.Materialize(at.s[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ms
	}
	dev := r.dev.Materialize(at.d, 0)
	if _, sr, err := wal.Open(dev, wal.CostModel{}, nil); err != nil || len(sr.Txns) == 0 {
		t.Fatalf("the cut's log should still hold t1: %d txns, %v", len(sr.Txns), err)
	}
	// Not even a recovery case: nothing is above any shard's stamp.
	s, _, err := openSharded("", crashShards, crashConfig(dev), stores, false)
	if err != nil {
		t.Fatalf("open after stamp-before-reset cut: %v", err)
	}
	defer s.Close()
	if got := readSharded(t, s); !maps.Equal(got, at.want) {
		t.Fatalf("recovered %v, want %v", got, at.want)
	}
}

// faultDev fails log writes and/or fsyncs on demand.
type faultDev struct {
	*wal.MemDevice
	failWrite, failSync bool
}

var errFault = errors.New("injected log device fault")

func (d *faultDev) WriteAt(p []byte, off int64) (int, error) {
	if d.failWrite {
		return 0, errFault
	}
	return d.MemDevice.WriteAt(p, off)
}

func (d *faultDev) Sync() error {
	if d.failSync {
		return errFault
	}
	return d.MemDevice.Sync()
}

// TestShardedLogFaultPoisons: a failed append, fsync or apply — on a
// directory's shared log and on a file's sidecar log alike, since both
// run one protocol — acknowledges nothing and leaves the database
// refusing commits until it is reopened; reads and plain writes carry on;
// Sync and Close flush the pages but leave the log untouched; and
// recovery replays whatever the log made durable.
func TestShardedLogFaultPoisons(t *testing.T) {
	shapes := []struct {
		name   string
		tables int
		open   func(dev wal.Device, stores []pagefile.Store, recover bool) (DB, error)
	}{
		{"dir", crashShards, func(dev wal.Device, stores []pagefile.Store, recover bool) (DB, error) {
			s, _, err := openSharded("", crashShards, crashConfig(dev), stores, recover)
			return s, err
		}},
		{"file", 1, func(dev wal.Device, stores []pagefile.Store, recover bool) (DB, error) {
			opts := *crashConfig(dev).Hash
			opts.Store = stores[0]
			open := func() (*core.Table, error) { return core.Open("", &opts) }
			if recover {
				open = func() (*core.Table, error) { t, _, err := core.Recover("", &opts); return t, err }
			}
			tbl, err := open()
			if err != nil {
				return nil, err
			}
			return &hashDB{tbl}, nil
		}},
	}
	faults := []struct {
		name    string
		set     func(*faultDev, []*pagefile.FaultStore, bool)
		durable string // what recovery finds under the faulted commit's keys
	}{
		{"append", func(d *faultDev, _ []*pagefile.FaultStore, on bool) { d.failWrite = on }, "ok"},
		{"fsync", func(d *faultDev, _ []*pagefile.FaultStore, on bool) { d.failSync = on }, "lost"},
		{"apply", func(_ *faultDev, fs []*pagefile.FaultStore, on bool) {
			for _, f := range fs {
				if on {
					f.Inject(pagefile.Fault{Op: pagefile.OpRead, Err: errFault, Page: pagefile.AnyPage})
				} else {
					f.Clear()
				}
			}
		}, "lost"},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			for _, shape := range shapes {
				t.Run(shape.name, func(t *testing.T) {
					dev := &faultDev{MemDevice: wal.NewMemDevice()}
					fs := make([]*pagefile.FaultStore, shape.tables)
					stores := make([]pagefile.Store, shape.tables)
					for i := range fs {
						fs[i] = pagefile.NewFault(pagefile.NewMem(128))
						stores[i] = fs[i]
					}
					s, err := shape.open(dev, stores, false)
					if err != nil {
						t.Fatal(err)
					}
					commit := func(v string) error {
						x, err := s.Begin()
						if err != nil {
							return err
						}
						x.Put(keyOnShard(0, 0), []byte(v))
						x.Put(keyOnShard(1, 0), []byte(v))
						return x.Commit()
					}
					if err := commit("ok"); err != nil {
						t.Fatal(err)
					}
					tc.set(dev, fs, true)
					if tc.name == "apply" { // the pages must come from the failing stores
						var tbls []*core.Table
						switch x := s.(type) {
						case *hashDB:
							tbls = append(tbls, x.Table)
						case *Sharded:
							for _, sh := range x.shards {
								tbls = append(tbls, sh.Table)
							}
						}
						for _, tbl := range tbls {
							if err := tbl.Pool().InvalidateAll(); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := commit("lost"); !errors.Is(err, errFault) {
						t.Fatalf("commit on a failing device = %v, want the device fault", err)
					}
					// The device heals; the database stays poisoned.
					tc.set(dev, fs, false)
					for sh := 0; sh < crashShards && tc.name != "apply"; sh++ {
						if v, _ := s.Get(keyOnShard(sh, 0)); string(v) != "ok" {
							t.Fatalf("key %d: failed commit was applied: %q", sh, v)
						}
					}
					if err := commit("after"); !errors.Is(err, errFault) {
						t.Fatalf("commit after a fault = %v, want refusal carrying the fault", err)
					}
					if _, err := s.Begin(); !errors.Is(err, errFault) {
						t.Fatalf("Begin after a fault = %v, want refusal", err)
					}
					if err := s.Put([]byte("plain"), []byte("v")); err != nil {
						t.Fatalf("plain put on a poisoned database: %v", err)
					}
					// A checkpoint still flushes but must leave the log alone.
					before := len(dev.Bytes())
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
					if st, _ := s.Stats(); st.Hash.TxnCommits != 1 {
						t.Fatalf("TxnCommits = %d, want 1 (only the acknowledged commit)", st.Hash.TxnCommits)
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					if len(dev.Bytes()) != before {
						t.Fatalf("poisoned checkpoint/close touched the log: %d -> %d bytes", before, len(dev.Bytes()))
					}
					// Recovery replays what the log holds over what the pages hold.
					r, err := shape.open(dev, stores, true)
					if err != nil {
						t.Fatalf("recover after the fault: %v", err)
					}
					defer r.Close()
					for sh := 0; sh < crashShards; sh++ {
						if v, err := r.Get(keyOnShard(sh, 0)); string(v) != tc.durable {
							t.Errorf("recovered key %d = %q (%v), want %q", sh, v, err, tc.durable)
						}
					}
					if v, err := r.Get([]byte("plain")); string(v) != "v" {
						t.Errorf("recovered plain put = %q (%v), want the synced %q", v, err, "v")
					}
				})
			}
		})
	}
}

// TestShardedReplayCountsLoggedTxns: recovery reports, per shard, the
// transactions it replayed into that shard, and counts each logged
// transaction once in hash_wal_replayed_txns_total however many shards it
// spans — as a file's recovery counts the transactions of its own log.
func TestShardedReplayCountsLoggedTxns(t *testing.T) {
	r := runCrashWorkload(t)
	end := r.points[len(r.points)-1]
	stores := make([]pagefile.Store, crashShards)
	for i, cs := range r.stores {
		ms, err := cs.Materialize(end.s[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ms
	}
	s, reports, err := openSharded("", crashShards, crashConfig(r.dev.Materialize(end.d, 0)), stores, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The workload's tail, t4 and t5, commits after the last checkpoint;
	// each spans both shards.
	if n := s.reg.Snapshot().Counter(core.MetricWalReplays); n != 2 {
		t.Fatalf("%s = %d, want the 2 logged transactions past the checkpoint", core.MetricWalReplays, n)
	}
	for i, rep := range reports {
		if rep.WALTxns != 2 {
			t.Errorf("shard %d replayed %d transactions, want 2 (%v)", i, rep.WALTxns, rep)
		}
	}
	if got := readSharded(t, s); !maps.Equal(got, end.want) {
		t.Fatalf("recovered %v, want %v", got, end.want)
	}
}
