package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"unixhash/internal/pagefile"
)

// Crash-consistency tests. A workload runs over a CrashStore, which
// journals every page write and sync barrier. Every prefix of that
// journal — including torn variants of the final write — is a possible
// power-cut state; each one is materialized, recovered, and checked
// against the model: recovery either restores the exact contents of a
// completed sync no older than the last one fully inside the prefix, or
// fails loudly. It never silently returns anything else.

// crashSnap records the model state at one completed table-level sync.
type crashSnap struct {
	events int // journal length when the sync completed
	epoch  uint64
	state  map[string]string
}

func cloneState(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// crashWorkload builds a table over a fresh CrashStore, running inserts,
// deletes and big pairs with periodic syncs. It returns the journal and
// the snapshot at every completed sync (snapshot 0 is the empty
// pre-create state).
func crashWorkload(t *testing.T, nops, syncEvery int) (*pagefile.CrashStore, []crashSnap) {
	t.Helper()
	cs := pagefile.NewCrash(pagefile.NewMem(128, pagefile.CostModel{}))
	opts := &Options{Store: cs, Bsize: 128, Ffactor: 4, CacheSize: 1024}
	tbl := mustOpen(t, "", opts)

	model := map[string]string{}
	snaps := []crashSnap{{events: 0, epoch: 0, state: map[string]string{}}}
	record := func() {
		snaps = append(snaps, crashSnap{
			events: cs.Len(),
			epoch:  tbl.Geometry().SyncEpoch,
			state:  cloneState(model),
		})
	}

	bigVal := func(i int) []byte { return bytes.Repeat([]byte{byte('A' + i%26)}, 300) }
	for i := 0; i < nops; i++ {
		switch {
		case i%17 == 13:
			// A big pair: 300 bytes of data cannot fit a 128-byte page.
			k, v := key(i), bigVal(i)
			if err := tbl.Put(k, v); err != nil {
				t.Fatalf("put big %d: %v", i, err)
			}
			model[string(k)] = string(v)
		case i%7 == 5 && i > 7:
			k := key(i - 5)
			err := tbl.Delete(k)
			if _, present := model[string(k)]; present {
				if err != nil {
					t.Fatalf("delete %d: %v", i-5, err)
				}
				delete(model, string(k))
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete absent %d: %v", i-5, err)
			}
		default:
			k, v := key(i), val(i)
			if err := tbl.Put(k, v); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			model[string(k)] = string(v)
		}
		if (i+1)%syncEvery == 0 {
			if err := tbl.Sync(); err != nil {
				t.Fatalf("sync at %d: %v", i, err)
			}
			record()
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	record() // Close syncs
	return cs, snaps
}

// readAll iterates the whole table into a map.
func readAll(t *testing.T, tbl *Table) map[string]string {
	t.Helper()
	out := map[string]string{}
	it := tbl.Iter()
	for it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterate: %v", err)
	}
	return out
}

// checkCrashState materializes one crash state and verifies the
// recovery contract, returning a short outcome label for counters.
func checkCrashState(t *testing.T, cs *pagefile.CrashStore, snaps []crashSnap, n, torn int) string {
	t.Helper()
	ms, err := cs.Materialize(n, torn)
	if err != nil {
		t.Fatalf("materialize(%d, %d): %v", n, torn, err)
	}

	// The newest snapshot fully inside the prefix is the floor: recovery
	// may land there or on any later sync whose writes made it in.
	floor := 0
	for i, s := range snaps {
		if s.events <= n {
			floor = i
		}
	}

	tbl, rep, err := Recover("", &Options{Store: ms, Bsize: ms.PageSize(), Ffactor: 4})
	if err != nil {
		// Loud failure is within contract for mid-protocol states, but a
		// crash exactly at a completed sync (untorn) must recover.
		if torn == 0 && snaps[floor].events == n {
			t.Fatalf("prefix %d (exactly at sync %d): recover failed: %v", n, floor, err)
		}
		return "failed-loud"
	}
	defer tbl.Close()

	got := readAll(t, tbl)
	matched := -1
	for i := floor; i < len(snaps); i++ {
		if mapsEqual(got, snaps[i].state) {
			matched = i
			break
		}
	}
	if matched < 0 {
		t.Fatalf("prefix %d torn %d: recovered %d keys matching no snapshot >= %d (report %+v)",
			n, torn, len(got), floor, rep)
	}
	if rep.SyncEpoch < snaps[floor].epoch {
		t.Fatalf("prefix %d torn %d: epoch went backwards: %d < %d", n, torn, rep.SyncEpoch, snaps[floor].epoch)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("prefix %d torn %d: post-recovery Check: %v", n, torn, err)
	}
	// The recovered table must be fully usable.
	probe := []byte("post-recovery-probe")
	if err := tbl.Put(probe, probe); err != nil {
		t.Fatalf("prefix %d torn %d: post-recovery put: %v", n, torn, err)
	}
	if v, err := tbl.Get(probe); err != nil || !bytes.Equal(v, probe) {
		t.Fatalf("prefix %d torn %d: post-recovery get: %v", n, torn, err)
	}
	if rep.WasDirty {
		return "recovered-dirty"
	}
	return "recovered-clean"
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestCrashMatrix replays every write prefix of a synced workload —
// including torn final pages — and asserts the recovery contract on
// each: exact last-synced contents or a loud error, never silent wrong
// answers.
func TestCrashMatrix(t *testing.T) {
	nops, syncEvery := 120, 25
	if testing.Short() {
		nops, syncEvery = 40, 10
	}
	cs, snaps := crashWorkload(t, nops, syncEvery)
	events := cs.Len()
	t.Logf("journal: %d events, %d sync snapshots", events, len(snaps))

	outcomes := map[string]int{}
	for n := 0; n <= events; n++ {
		outcomes[checkCrashState(t, cs, snaps, n, 0)]++
	}
	// Torn variants of every prefix ending in a write: the final page
	// lands partially (first k bytes new, tail old or zero).
	evs := cs.Events()
	for n := 1; n <= events; n++ {
		if evs[n-1].Sync {
			continue
		}
		for _, torn := range []int{1, 64, 127} {
			outcomes[checkCrashState(t, cs, snaps, n, torn)]++
		}
	}
	t.Logf("outcomes: %v", outcomes)
	// The matrix must exercise every leg of the contract: clean reopens
	// at sync boundaries, genuine dirty-flag recoveries, and loud
	// refusals for states that cannot reproduce a synced state.
	for _, want := range []string{"recovered-clean", "recovered-dirty", "failed-loud"} {
		if outcomes[want] == 0 {
			t.Errorf("matrix never produced outcome %q", want)
		}
	}
}

// TestCrashDirtyOpenRefused: a crash after the durable dirty mark but
// before the next sync must refuse a normal Open with ErrNeedsRecovery;
// AllowDirty opens it for inspection only — Verify reports the problem,
// mutations and Sync are rejected, and Close does not stamp it clean.
func TestCrashDirtyOpenRefused(t *testing.T) {
	cs := pagefile.NewCrash(pagefile.NewMem(128, pagefile.CostModel{}))
	tbl := mustOpen(t, "", &Options{Store: cs, Bsize: 128, Ffactor: 4})
	for i := 0; i < 20; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	// This Put durably marks the file dirty before mutating anything;
	// the mutation itself stays in the buffer pool.
	if err := tbl.Put(key(100), val(100)); err != nil {
		t.Fatal(err)
	}
	ms, err := cs.Materialize(cs.Len(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open("", &Options{Store: ms, Bsize: 128, Ffactor: 4}); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("open of dirty crash state = %v, want ErrNeedsRecovery", err)
	}

	ro, err := Open("", &Options{Store: ms, Bsize: 128, Ffactor: 4, AllowDirty: true, ReadOnly: true})
	if err != nil {
		t.Fatalf("AllowDirty open: %v", err)
	}
	// The synced keys are readable for inspection.
	if v, err := ro.Get(key(3)); err != nil || !bytes.Equal(v, val(3)) {
		t.Fatalf("inspection get: %v", err)
	}
	// Verify of a dirty file never returns nil — here the last-synced
	// state is intact, so it reports that recovery is needed.
	if err := ro.Verify(); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("Verify of intact dirty file = %v, want ErrNeedsRecovery", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatalf("close inspection table: %v", err)
	}

	tblW, err := Open("", &Options{Store: ms, Bsize: 128, Ffactor: 4, AllowDirty: true})
	if err != nil {
		t.Fatalf("AllowDirty writable open: %v", err)
	}
	if err := tblW.Put([]byte("x"), []byte("y")); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("put on unrecovered table = %v, want ErrNeedsRecovery", err)
	}
	if err := tblW.Delete(key(0)); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("delete on unrecovered table = %v, want ErrNeedsRecovery", err)
	}
	if err := tblW.Sync(); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("sync on unrecovered table = %v, want ErrNeedsRecovery", err)
	}
	if err := tblW.Close(); err != nil {
		t.Fatalf("close unrecovered table: %v", err)
	}
	// Close must not have blessed the file: it still refuses normal opens.
	if _, err := Open("", &Options{Store: ms, Bsize: 128, Ffactor: 4}); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("open after inspection close = %v, want ErrNeedsRecovery", err)
	}
}

// TestCrashUnrecoverableIsLoud: a dirty file whose pages cannot
// reproduce the last-synced pairs must fail recovery with
// ErrUnrecoverable and be left untouched. No silent answers.
func TestCrashUnrecoverableIsLoud(t *testing.T) {
	cs, _ := crashWorkload(t, 40, 10)
	ms, err := cs.Materialize(cs.Len(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Re-mark the header dirty, as a crashed writer would have left it.
	var h header
	buf := make([]byte, 3*128) // headerSize 284 -> 3 pages at bsize 128
	for i := 0; i < 3; i++ {
		if err := ms.ReadPage(uint32(i), buf[i*128:(i+1)*128]); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.decode(buf); err != nil {
		t.Fatalf("decode clean header: %v", err)
	}
	h.flags |= hdrDirty
	h.encode(buf)
	for i := 0; i < 3; i++ {
		if err := ms.WritePage(uint32(i), buf[i*128:(i+1)*128]); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt pair bytes that are provably in use: find a slot-structured
	// page with entries and flip its packed data region [low, end) —
	// stored key/data bytes change under an intact page structure.
	pg := make([]byte, 128)
	corrupted := false
	for pn := h.hdrPages; pn < ms.NPages() && !corrupted; pn++ {
		if err := ms.ReadPage(pn, pg); err != nil {
			t.Fatal(err)
		}
		if isBigPage(pg) || isBitmapPage(pg) {
			continue
		}
		p := page(pg)
		if p.nslots() < 2 || p.slot(0) == markOvfl || p.low() >= len(pg) {
			continue
		}
		for i := p.low(); i < len(pg); i++ {
			pg[i] ^= 0x5A
		}
		if err := ms.WritePage(pn, pg); err != nil {
			t.Fatal(err)
		}
		corrupted = true
	}
	if !corrupted {
		t.Fatal("found no data page with live pairs to corrupt")
	}

	if _, _, err := Recover("", &Options{Store: ms, Bsize: 128, Ffactor: 4}); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("recover of trashed file = %v, want ErrUnrecoverable", err)
	}
	// Verify agrees, and the failed recovery left the file dirty: normal
	// opens still refuse it.
	insp, err := Open("", &Options{Store: ms, Bsize: 128, Ffactor: 4, AllowDirty: true, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := insp.Verify(); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Verify of trashed file = %v, want ErrUnrecoverable", err)
	}
	insp.Close()
	if _, err := Open("", &Options{Store: ms, Bsize: 128, Ffactor: 4}); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("open after failed recovery = %v, want ErrNeedsRecovery", err)
	}
}

// TestSyncEpochMonotonic: every sync that persists changes bumps the
// epoch exactly once; a sync with nothing to persist leaves it alone.
func TestSyncEpochMonotonic(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	defer tbl.Close()

	if got := tbl.Geometry().SyncEpoch; got != 0 {
		t.Fatalf("fresh table epoch = %d", got)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	first := tbl.Geometry().SyncEpoch
	if first != 1 {
		t.Fatalf("first sync epoch = %d, want 1", first)
	}
	// No mutations since: another sync must not bump the epoch.
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Geometry().SyncEpoch; got != first {
		t.Fatalf("no-op sync bumped epoch to %d", got)
	}
	if err := tbl.Put(key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Geometry().SyncEpoch; got != first+1 {
		t.Fatalf("epoch after mutation+sync = %d, want %d", got, first+1)
	}
}

// TestSyncFaultPaths exercises Table.Sync error handling: injected
// write and sync faults mid-protocol must leave the table usable, keep
// the on-disk header dirty until a sync truly completes, and leave the
// file consistent for a reopen.
func TestSyncFaultPaths(t *testing.T) {
	errBoom := errors.New("boom")

	cases := []struct {
		name string
		// inject receives the number of syncs performed so far and
		// returns the fault to arm before the failing Table.Sync call.
		inject func(syncs int64) pagefile.Fault
	}{
		// The phase-1 barrier (data before header) fails.
		{"data-sync-fault", func(syncs int64) pagefile.Fault {
			return pagefile.Fault{Op: pagefile.OpSync, After: syncs + 1, Err: errBoom}
		}},
		// A data/bitmap page write fails during the pool flush.
		{"write-fault", func(int64) pagefile.Fault {
			return pagefile.Fault{Op: pagefile.OpWrite, After: 1, Err: errBoom, Page: pagefile.AnyPage}
		}},
		// The phase-2 header write fails (page 0 is a header page).
		{"header-write-fault", func(int64) pagefile.Fault {
			return pagefile.Fault{Op: pagefile.OpWrite, After: 1, Err: errBoom, Page: 0}
		}},
		// The trailing barrier after the clean header fails.
		{"final-sync-fault", func(syncs int64) pagefile.Fault {
			return pagefile.Fault{Op: pagefile.OpSync, After: syncs + 2, Err: errBoom}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := pagefile.NewMem(128, pagefile.CostModel{})
			fs := pagefile.NewFault(inner)
			tbl := mustOpen(t, "", &Options{Store: fs, Bsize: 128, Ffactor: 4})

			for i := 0; i < 30; i++ {
				if err := tbl.Put(key(i), val(i)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			fs.Inject(tc.inject(fs.Stats().Snapshot().Syncs))
			if err := tbl.Sync(); !errors.Is(err, errBoom) {
				t.Fatalf("faulted sync = %v, want boom", err)
			}
			fs.Clear()

			// The table stays fully usable after the failed sync.
			if v, err := tbl.Get(key(7)); err != nil || !bytes.Equal(v, val(7)) {
				t.Fatalf("get after failed sync: %v", err)
			}
			if err := tbl.Put(key(100), val(100)); err != nil {
				t.Fatalf("put after failed sync: %v", err)
			}

			// The retry must run the full protocol — the header was not
			// prematurely marked clean — so a reopen of the raw store sees
			// a clean, complete file.
			if err := tbl.Sync(); err != nil {
				t.Fatalf("retry sync: %v", err)
			}
			if err := tbl.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			re, err := Open("", &Options{Store: inner, Bsize: 128, Ffactor: 4})
			if err != nil {
				t.Fatalf("reopen after faulted sync cycle: %v", err)
			}
			defer re.Close()
			if err := re.Check(); err != nil {
				t.Fatalf("post-reopen check: %v", err)
			}
			for i := 0; i < 30; i++ {
				if v, err := re.Get(key(i)); err != nil || !bytes.Equal(v, val(i)) {
					t.Fatalf("reopen get %d: %v", i, err)
				}
			}
			if v, err := re.Get(key(100)); err != nil || !bytes.Equal(v, val(100)) {
				t.Fatalf("reopen get 100: %v", err)
			}
		})
	}
}

// TestMarkDirtyFaultLeavesTableUnchanged: if the durable dirty mark
// itself fails, the mutation that triggered it must not happen.
func TestMarkDirtyFaultLeavesTableUnchanged(t *testing.T) {
	errBoom := errors.New("boom")
	inner := pagefile.NewMem(128, pagefile.CostModel{})
	fs := pagefile.NewFault(inner)
	tbl := mustOpen(t, "", &Options{Store: fs, Bsize: 128, Ffactor: 4})

	fs.Inject(pagefile.Fault{Op: pagefile.OpWrite, After: 1, Err: errBoom, Page: pagefile.AnyPage})
	if err := tbl.Put(key(1), val(1)); !errors.Is(err, errBoom) {
		t.Fatalf("put with failing dirty mark = %v, want boom", err)
	}
	if tbl.Len() != 0 {
		t.Fatalf("failed put changed Len to %d", tbl.Len())
	}
	fs.Clear()
	if err := tbl.Put(key(1), val(1)); err != nil {
		t.Fatalf("put after clearing fault: %v", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzTableCrashRecovery drives a randomized workload/crash-point pair
// through the recovery contract. It is the smoke target for the CI
// crash job (-fuzz=FuzzTable matches only this function). A non-zero
// bigKlen first stores a bigKlen-byte key with an empty value on
// 256-byte pages, where a 244-byte key fills its chain exactly.
func FuzzTableCrashRecovery(f *testing.F) {
	f.Add(uint8(30), uint8(7), uint16(40), uint8(0), uint8(0))
	f.Add(uint8(50), uint8(11), uint16(500), uint8(63), uint8(0))
	f.Add(uint8(10), uint8(3), uint16(2), uint8(127), uint8(0))
	f.Add(uint8(30), uint8(7), uint16(200), uint8(0), uint8(244))

	f.Fuzz(func(t *testing.T, nops, syncEvery uint8, prefix uint16, torn, bigKlen uint8) {
		if syncEvery == 0 {
			syncEvery = 1
		}
		bsize := 128
		if bigKlen > 0 {
			bsize = 256
		}
		cs := pagefile.NewCrash(pagefile.NewMem(bsize, pagefile.CostModel{}))
		tbl, err := Open("", &Options{Store: cs, Bsize: bsize, Ffactor: 4, CacheSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]string{}
		if bigKlen > 0 {
			k := bytes.Repeat([]byte{'K'}, int(bigKlen))
			if err := tbl.Put(k, nil); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = ""
		}
		snaps := []crashSnap{{events: 0, epoch: 0, state: map[string]string{}}}
		for i := 0; i < int(nops); i++ {
			if i%5 == 4 && i > 5 {
				k := key(i - 4)
				if _, ok := model[string(k)]; ok {
					if err := tbl.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(model, string(k))
				}
			} else {
				if err := tbl.Put(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
				model[string(key(i))] = string(val(i))
			}
			if (i+1)%int(syncEvery) == 0 {
				if err := tbl.Sync(); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, crashSnap{events: cs.Len(), epoch: tbl.Geometry().SyncEpoch, state: cloneState(model)})
			}
		}
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, crashSnap{events: cs.Len(), epoch: tbl.Geometry().SyncEpoch, state: cloneState(model)})

		n := int(prefix) % (cs.Len() + 1)
		checkCrashState(t, cs, snaps, n, int(torn)%128)
	})
}

// Recover must not manufacture an empty table from a typo'd path: Open
// creates missing files, so Recover has to check existence first.
func TestRecoverMissingFileFails(t *testing.T) {
	if _, _, err := Recover(filepath.Join(t.TempDir(), "nope.db"), nil); err == nil {
		t.Fatal("Recover on a missing file succeeded")
	}
}
