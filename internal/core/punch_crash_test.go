package core

import (
	"bytes"
	"errors"
	"testing"

	"unixhash/internal/pagefile"
)

// punchWorkload builds chains, then frees overflow pages by deleting big
// pairs and by splitting chained buckets, syncing twice after the frees,
// and returns the journal and the snapshot at every completed sync.
func punchWorkload(t *testing.T) (*pagefile.CrashStore, []crashSnap) {
	t.Helper()
	cs := pagefile.NewCrash(pagefile.NewMem(128))
	tbl := mustOpen(t, "", &Options{Store: cs, Bsize: 128, Ffactor: 12, CacheSize: 1024})
	model := map[string]string{}
	snaps := []crashSnap{{state: map[string]string{}}}
	record := func() {
		snaps = append(snaps, crashSnap{events: cs.Len(), epoch: tbl.Geometry().SyncEpoch, state: cloneState(model)})
	}
	sync := func() {
		if err := tbl.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		record()
	}
	put := func(k, v []byte) {
		if err := tbl.Put(k, v); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
		model[string(k)] = string(v)
	}
	del := func(k []byte) {
		if err := tbl.Delete(k); err != nil {
			t.Fatalf("delete %q: %v", k, err)
		}
		delete(model, string(k))
	}
	big := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 400) }

	// Ffactor 12 on 128-byte pages: buckets chain before they split.
	for i := 0; i < 40; i++ {
		put(key(i), val(i))
		if i%8 == 3 {
			put(key(1000+i), big(i))
		}
	}
	sync()
	for i := 0; i < 40; i++ {
		if i%8 == 3 {
			del(key(1000 + i)) // a big pair's chain goes back to the bitmaps
		}
	}
	for i := 40; i < 100; i++ {
		put(key(i), val(i)) // splits redistribute chains and free their pages
	}
	sync()
	sync()
	for i := 0; i < 100; i += 3 {
		del(key(i))
	}
	sync()
	if err := tbl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	record() // Close syncs
	return cs, snaps
}

// TestCrashPunchMatrix cuts the punch workload at every journal event,
// torn writes included, under the recovery contract of TestCrashMatrix.
// It also pins the punch's place in the protocol: a punch comes right
// after the sync barrier that made a clean header durable, so a cut
// anywhere from that barrier to the punch's last page reopens clean with
// exactly that sync's contents. A punch before the header is durable
// leaves the dirty mark (or the previous clean header) at the barrier
// and fails here by name.
func TestCrashPunchMatrix(t *testing.T) {
	cs, snaps := punchWorkload(t)
	evs := cs.Events()
	outcomes := map[string]int{}
	for n := 0; n <= len(evs); n++ {
		outcomes[checkCrashState(t, cs, snaps, n, 0)]++
		if n > 0 && !evs[n-1].Sync {
			for _, torn := range []int{1, 64, 127} {
				outcomes[checkCrashState(t, cs, snaps, n, torn)]++
			}
		}
	}

	isPunch := func(ev pagefile.CrashEvent) bool { return ev.Punch }
	runs, punched := 0, 0
	for a := 0; a < len(evs); a++ {
		if !isPunch(evs[a]) || (a > 0 && isPunch(evs[a-1])) {
			continue
		}
		b := a
		for b < len(evs) && isPunch(evs[b]) {
			b++
		}
		runs, punched = runs+1, punched+b-a
		if a == 0 || !evs[a-1].Sync {
			t.Fatalf("punch at events [%d, %d) does not follow a sync barrier", a, b)
		}
		k := 0 // the sync this punch belongs to
		for k < len(snaps) && snaps[k].events < b {
			k++
		}
		if k == len(snaps) {
			t.Fatalf("punch at events [%d, %d) belongs to no completed sync", a, b)
		}
		for n := a; n <= b; n++ {
			ms, err := cs.Materialize(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			tbl, rep, err := Recover("", &Options{Store: ms, Bsize: 128})
			if err != nil {
				t.Fatalf("cut %d inside the punch at [%d, %d): %v", n, a, b, err)
			}
			got := readAll(t, tbl)
			if rep.WasDirty || !mapsEqual(got, snaps[k].state) {
				t.Fatalf("cut %d inside the punch at [%d, %d): dirty=%v, %d keys, want sync %d's %d keys clean",
					n, a, b, rep.WasDirty, len(got), k, len(snaps[k].state))
			}
			if err := tbl.Check(); err != nil {
				t.Fatalf("cut %d inside the punch at [%d, %d): Check: %v", n, a, b, err)
			}
			tbl.Close()
		}
	}
	t.Logf("journal: %d events, %d syncs, %d punch runs over %d pages; outcomes %v",
		len(evs), len(snaps)-1, runs, punched, outcomes)
	if runs < 2 {
		t.Fatalf("the workload punched %d times, want at least 2", runs)
	}
	for _, want := range []string{"recovered-clean", "recovered-dirty"} {
		if outcomes[want] == 0 {
			t.Errorf("matrix never produced outcome %q", want)
		}
	}
}

// failPuncher is a store whose every punch fails.
type failPuncher struct {
	pagefile.Store
	calls int
}

func (f *failPuncher) PunchHole(pageno, n uint32) error {
	f.calls++
	return errors.New("punch refused")
}

// TestSyncIgnoresPunchFailure: a punch gives back bytes that are already
// dead, so its failure fails neither Sync nor anything read after it.
func TestSyncIgnoresPunchFailure(t *testing.T) {
	st := &failPuncher{Store: pagefile.NewMem(128)}
	tbl := mustOpen(t, "", &Options{Store: st, Bsize: 128, Ffactor: 12, CacheSize: 1024})
	big := bytes.Repeat([]byte{'b'}, 400)
	for i := 0; i < 20; i++ {
		if err := tbl.Put(key(i), big); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i += 2 {
		if err := tbl.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("sync with a failing punch: %v", err)
	}
	if st.calls == 0 {
		t.Fatal("the sync after the deletes punched nothing")
	}
	for i := 1; i < 20; i += 2 {
		if v, err := tbl.Get(key(i)); err != nil || !bytes.Equal(v, big) {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
}
