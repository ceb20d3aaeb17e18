package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"unixhash/internal/pagefile"
	"unixhash/internal/wal"
)

// walOpts returns small-page options with a caller-held WAL device, so a
// test can "crash" by materializing the store and re-opening against a
// copy of the log bytes.
func walOpts(dev wal.Device, store pagefile.Store) *Options {
	// The cache must hold every dirty page between checkpoints: a steal
	// would write post-checkpoint bytes over last-synced state.
	return &Options{Store: store, WALDevice: dev, Bsize: 128, Ffactor: 4, CacheSize: 4096}
}

func memWalFrom(b []byte) *wal.MemDevice {
	d := wal.NewMemDevice()
	d.WriteAt(b, 0)
	return d
}

func TestTxnRequiresWAL(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()
	if _, err := tbl.Begin(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Begin without WAL: %v, want ErrNoWAL", err)
	}
}

func TestTxnCommitVisible(t *testing.T) {
	dev := wal.NewMemDevice()
	tbl := mustOpen(t, "", walOpts(dev, nil))
	defer tbl.Close()

	if err := tbl.Put(key(0), val(0)); err != nil {
		t.Fatalf("baseline put: %v", err)
	}
	x, err := tbl.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	for i := 1; i <= 5; i++ {
		if err := x.Put(key(i), val(i)); err != nil {
			t.Fatalf("txn put %d: %v", i, err)
		}
	}
	if err := x.Put(key(0), val2(0)); err != nil { // replace
		t.Fatalf("txn replace: %v", err)
	}
	if err := x.Delete(key(3)); err != nil { // delete a key this txn put
		t.Fatalf("txn delete: %v", err)
	}
	// Nothing visible before commit.
	if _, err := tbl.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted key visible: %v", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for _, i := range []int{1, 2, 4, 5} {
		got, err := tbl.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after commit: %q, %v", i, got, err)
		}
	}
	if _, err := tbl.Get(key(3)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key present after commit: %v", err)
	}
	if got, err := tbl.Get(key(0)); err != nil || !bytes.Equal(got, val2(0)) {
		t.Fatalf("replaced key: %q, %v", got, err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	if err := x.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v, want ErrTxnDone", err)
	}
}

// TestTxnDurability is the tentpole contract: a committed transaction
// survives a crash with no table Sync — the pages never saw it; only the
// log did — and Recover replays it.
func TestTxnDurability(t *testing.T) {
	dev := wal.NewMemDevice()
	cs := pagefile.NewCrash(pagefile.NewMem(128))
	tbl := mustOpen(t, "", walOpts(dev, cs))

	for i := 0; i < 20; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatalf("baseline put %d: %v", i, err)
		}
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("baseline sync: %v", err)
	}

	// Three committed transactions, never synced into the pages. One
	// carries a big pair (300 bytes cannot fit a 128-byte page).
	big := bytes.Repeat([]byte{'B'}, 300)
	for txn := 0; txn < 3; txn++ {
		x, err := tbl.Begin()
		if err != nil {
			t.Fatalf("begin %d: %v", txn, err)
		}
		if err := x.Put(key(100+txn), val(100+txn)); err != nil {
			t.Fatalf("txn put: %v", err)
		}
		if err := x.Delete(key(txn)); err != nil {
			t.Fatalf("txn delete: %v", err)
		}
		if txn == 1 {
			if err := x.Put([]byte("bigkey"), big); err != nil {
				t.Fatalf("txn big put: %v", err)
			}
		}
		if err := x.Commit(); err != nil {
			t.Fatalf("commit %d: %v", txn, err)
		}
	}

	// Crash: the store is whatever reached it (header dirty-mark only,
	// since nothing forced a flush), the log is fully fsynced.
	ms, err := cs.Materialize(cs.Len(), 0)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	wdev := memWalFrom(dev.Bytes())

	// A plain Open must refuse to serve: there are unapplied commits.
	if _, err := Open("", walOpts(wdev, ms)); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("open with pending commits: %v, want ErrNeedsRecovery", err)
	}

	re, rep, err := Recover("", walOpts(wdev, ms))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Close()
	if rep.WALTxns != 3 || rep.WALOps != 7 {
		t.Fatalf("report: %d txns / %d ops replayed, want 3 / 7 (%s)", rep.WALTxns, rep.WALOps, rep)
	}
	for txn := 0; txn < 3; txn++ {
		if got, err := re.Get(key(100 + txn)); err != nil || !bytes.Equal(got, val(100+txn)) {
			t.Fatalf("txn %d key after recovery: %q, %v", txn, got, err)
		}
		if _, err := re.Get(key(txn)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("txn %d deleted key after recovery: %v", txn, err)
		}
	}
	if got, err := re.Get([]byte("bigkey")); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big pair after recovery: %d bytes, %v", len(got), err)
	}
	if err := re.Check(); err != nil {
		t.Fatalf("check after recovery: %v", err)
	}
	// The replay checkpointed: the log was truncated and the header
	// carries the replayed LSN.
	g := re.Geometry()
	if g.WalLSN == 0 || g.WalLSN != g.AppliedLSN {
		t.Fatalf("post-recovery LSNs: wal=%d applied=%d", g.WalLSN, g.AppliedLSN)
	}
	snap, err := re.MetricsSnapshot()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if n := snap.Counter(MetricWalReplays); n != 3 {
		t.Fatalf("%s = %d, want 3", MetricWalReplays, n)
	}
}

// TestTxnRollback pins the acceptance criterion: Begin / mixed ops /
// Rollback leaves the table identical — same pairs, same geometry, and
// not a byte appended to the log.
func TestTxnRollback(t *testing.T) {
	dev := wal.NewMemDevice()
	tbl := mustOpen(t, "", walOpts(dev, nil))
	defer tbl.Close()

	for i := 0; i < 50; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	before := tbl.Geometry()
	logBefore := dev.Bytes()

	x, err := tbl.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := x.Put(key(200+i), val(200+i)); err != nil {
			t.Fatalf("txn put: %v", err)
		}
		if err := x.Delete(key(i)); err != nil {
			t.Fatalf("txn delete: %v", err)
		}
	}
	if err := x.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if err := x.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit after rollback: %v, want ErrTxnDone", err)
	}

	if after := tbl.Geometry(); after != before {
		t.Fatalf("geometry changed across rollback:\n before %+v\n after  %+v", before, after)
	}
	if !bytes.Equal(dev.Bytes(), logBefore) {
		t.Fatalf("rollback appended %d log bytes", len(dev.Bytes())-len(logBefore))
	}
	for i := 0; i < 50; i++ {
		if got, err := tbl.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after rollback: %q, %v", i, got, err)
		}
	}
	if _, err := tbl.Get(key(200)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rolled-back key visible: %v", err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestTxnEmptyAndErrors(t *testing.T) {
	tbl := mustOpen(t, "", walOpts(wal.NewMemDevice(), nil))
	defer tbl.Close()

	x, err := tbl.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := x.Put(nil, val(0)); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key: %v", err)
	}
	if err := x.Delete(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty delete key: %v", err)
	}
	if x.Len() != 0 {
		t.Fatalf("rejected ops buffered: %d", x.Len())
	}
	if err := x.Commit(); err != nil { // empty commit is a no-op
		t.Fatalf("empty commit: %v", err)
	}
	if err := x.Put(key(1), val(1)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("put on done txn: %v", err)
	}

	// Deleting an absent key commits fine: redo semantics are
	// "ensure absent".
	x2, _ := tbl.Begin()
	if err := x2.Delete(key(42)); err != nil {
		t.Fatalf("buffer delete: %v", err)
	}
	if err := x2.Commit(); err != nil {
		t.Fatalf("commit ensure-absent: %v", err)
	}
}

// TestTxnCheckpoint verifies the checkpoint protocol: Sync folds the
// applied LSN into the header and truncates the log back to its header.
func TestTxnCheckpoint(t *testing.T) {
	dev := wal.NewMemDevice()
	tbl := mustOpen(t, "", walOpts(dev, nil))
	defer tbl.Close()

	for i := 0; i < 5; i++ {
		x, _ := tbl.Begin()
		if err := x.Put(key(i), val(i)); err != nil {
			t.Fatalf("txn put: %v", err)
		}
		if err := x.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	g := tbl.Geometry()
	if g.AppliedLSN == 0 || g.WalLSN != 0 {
		t.Fatalf("pre-checkpoint LSNs: applied=%d wal=%d", g.AppliedLSN, g.WalLSN)
	}
	if sz, _ := dev.Size(); sz <= wal.HeaderSize {
		t.Fatalf("log did not grow: %d bytes", sz)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	g = tbl.Geometry()
	if g.WalLSN != g.AppliedLSN {
		t.Fatalf("post-checkpoint LSNs: applied=%d wal=%d", g.AppliedLSN, g.WalLSN)
	}
	if sz, _ := dev.Size(); sz != wal.HeaderSize {
		t.Fatalf("log not truncated at checkpoint: %d bytes", sz)
	}
	snap, err := tbl.MetricsSnapshot()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if snap.Counter(MetricCheckpoints) == 0 {
		t.Fatalf("no checkpoint counted")
	}
	if snap.Counter(MetricTxnCommits) != 5 {
		t.Fatalf("%s = %d, want 5", MetricTxnCommits, snap.Counter(MetricTxnCommits))
	}
}

// TestTxnConcurrent drives parallel committers (with splits in flight)
// and checks atomic application: every transaction's keys land together.
func TestTxnConcurrent(t *testing.T) {
	dev := wal.NewMemDevice()
	tbl := mustOpen(t, "", walOpts(dev, nil))
	defer tbl.Close()

	const (
		workers = 8
		txns    = 40
		opsPer  = 4
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				x, err := tbl.Begin()
				if err != nil {
					errc <- err
					return
				}
				for j := 0; j < opsPer; j++ {
					n := w*100000 + i*opsPer + j
					if err := x.Put(key(n), val(n)); err != nil {
						errc <- err
						return
					}
				}
				if err := x.Commit(); err != nil {
					errc <- fmt.Errorf("worker %d txn %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < txns*opsPer; i++ {
			n := w*100000 + i
			if got, err := tbl.Get(key(n)); err != nil || !bytes.Equal(got, val(n)) {
				t.Fatalf("key %d: %q, %v", n, got, err)
			}
		}
	}
	if got, want := int64(tbl.Len()), int64(workers*txns*opsPer); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	snap, err := tbl.MetricsSnapshot()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if n := snap.Counter(MetricTxnCommits); n != workers*txns {
		t.Fatalf("%s = %d, want %d", MetricTxnCommits, n, workers*txns)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("final sync: %v", err)
	}
}

// TestTxnFileBacked runs transactions against a real file pair (table +
// sibling .wal) and checks a clean close/reopen round-trip.
func TestTxnFileBacked(t *testing.T) {
	path := t.TempDir() + "/txn.db"
	tbl := mustOpen(t, path, &Options{WAL: true, Bsize: 256, Ffactor: 8})
	for i := 0; i < 30; i++ {
		x, err := tbl.Begin()
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		if err := x.Put(key(i), val(i)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := x.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := mustOpen(t, path, &Options{WAL: true})
	defer re.Close()
	for i := 0; i < 30; i++ {
		if got, err := re.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after reopen: %q, %v", i, got, err)
		}
	}
	if err := re.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
}

// TestWALAutoAttach pins the open-path guard: a header whose checkpoint
// LSN is nonzero proves the table is WAL-managed, so opening it without
// Options.WAL must not silently orphan the log (and with it any commit
// since the last checkpoint). Path-backed tables re-attach the sidecar
// log on their own; store-backed tables refuse loudly when the device
// is missing.
func TestWALAutoAttach(t *testing.T) {
	path := t.TempDir() + "/auto.db"
	tbl := mustOpen(t, path, &Options{WAL: true, Bsize: 256, Ffactor: 8})
	x, err := tbl.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := x.Put(key(1), val(1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen WITHOUT Options.WAL: the sidecar log must come back on its
	// own — observable because Begin works and the checkpoint survives.
	re := mustOpen(t, path, nil)
	if g := re.Geometry(); g.WalLSN == 0 {
		t.Fatal("reopen lost the wal checkpoint LSN")
	}
	x, err = re.Begin()
	if err != nil {
		t.Fatalf("begin after plain reopen: %v", err)
	}
	if err := x.Put(key(2), val(2)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatalf("commit after plain reopen: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A store-backed WAL table whose device is not handed back must
	// refuse to open rather than silently roll back to the checkpoint.
	store := pagefile.NewMem(256)
	dev := wal.NewMemDevice()
	mt := mustOpen(t, "", &Options{Store: store, WALDevice: dev, Bsize: 256, Ffactor: 8})
	x, err = mt.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := x.Put(key(3), val(3)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := mt.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := Open("", &Options{Store: store, Bsize: 256, Ffactor: 8}); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("open without device: err = %v, want ErrUnrecoverable", err)
	}
	if re, err := Open("", &Options{Store: store, WALDevice: dev, Bsize: 256, Ffactor: 8}); err != nil {
		t.Fatalf("open with device: %v", err)
	} else {
		re.Close()
	}
}

// TestWALAutoAttachBeforeFirstCheckpoint pins the nastiest auto-attach
// window: a table that attached a log and acknowledged a commit but
// crashed before its FIRST checkpoint still has walLSN == 0 in the
// header, so only the hdrWAL flag proves the log exists. Recover called
// without WAL options must still find the log and replay the commit —
// the original walLSN-keyed guard silently discarded it.
func TestWALAutoAttachBeforeFirstCheckpoint(t *testing.T) {
	path := t.TempDir() + "/first.db"
	tbl := mustOpen(t, path, &Options{WAL: true, Bsize: 256, Ffactor: 8})
	x, err := tbl.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := x.Put(key(1), val(1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if g := tbl.Geometry(); g.WalLSN != 0 {
		t.Fatalf("premise broken: checkpoint already ran (walLSN=%d)", g.WalLSN)
	}
	// Crash: copy the file and its log while the handle is open, so no
	// checkpoint reaches the copy. Every acknowledged byte is already on
	// disk (markDirty synced the dirty header, Commit fsynced the log).
	path = snapshot(t, path)
	tbl.Close()

	// A plain open must refuse (the file is dirty AND the log holds an
	// unapplied commit), never silently serve the pre-commit state.
	if _, err := Open(path, nil); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("plain open: err = %v, want ErrNeedsRecovery", err)
	}

	re, rep, err := Recover(path, nil)
	if err != nil {
		t.Fatalf("recover without wal options: %v", err)
	}
	defer re.Close()
	if rep.WALTxns != 1 {
		t.Fatalf("recover replayed %d txns, want 1 (report: %s)", rep.WALTxns, rep)
	}
	got, err := re.Get(key(1))
	if err != nil || !bytes.Equal(got, val(1)) {
		t.Fatalf("acknowledged commit lost: Get = %q, %v", got, err)
	}
	if g := re.Geometry(); g.WalLSN == 0 {
		t.Fatal("recovery did not checkpoint the replayed commit")
	}
}
