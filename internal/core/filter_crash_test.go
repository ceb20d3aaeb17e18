package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"unixhash/internal/pagefile"
)

// Crash and concurrency coverage for the read-acceleration layer. The
// per-bucket tag filter lives in a reserved region of each primary
// page, so a torn page write can corrupt filter bytes independently of
// the pairs on the same page. The recovery contract is that filters are
// pure acceleration state: Recover rebuilds every bucket's tags from
// the pair data it verified and never trusts a byte that was on disk —
// a torn filter must never surface as a false negative (a stored key
// answered "absent").

// TestCrashTornFilterBytes sweeps the standard crash workload with the
// final page write torn inside the filter region specifically (the
// bytes between the page header and the slot area: count, flags,
// chainLen and the tag array at bsize 128 span offsets 4..23). Every
// recovery must pass Check, whose filter leg fails on any false
// negative or miscounted tag set.
func TestCrashTornFilterBytes(t *testing.T) {
	nops, syncEvery := 60, 12
	if testing.Short() {
		nops, syncEvery = 30, 10
	}
	cs, snaps := crashWorkload(t, nops, syncEvery)
	evs := cs.Events()
	outcomes := map[string]int{}
	for n := 1; n <= cs.Len(); n++ {
		if evs[n-1].Sync {
			continue
		}
		// Tear mid-count, mid-flags/chainLen, and mid-tag-array.
		for _, torn := range []int{fltCountOff + 1, fltChainOff + 1, fltTagsOff + 9} {
			outcomes[checkCrashState(t, cs, snaps, n, torn)]++
		}
	}
	t.Logf("outcomes: %v", outcomes)
	if outcomes["recovered-dirty"] == 0 {
		t.Error("sweep never exercised a dirty recovery with torn filter bytes")
	}
}

// TestRecoverIgnoresGarbageFilterBytes plants adversarial filter state
// on a dirty file — regions rewritten to claim "no keys here" and
// regions full of wrong tags — and verifies Recover rebuilds every
// filter from pair data: the report says so, every stored key is still
// found (the planted bytes would answer "absent" if trusted), and
// Check's filter invariants pass.
func TestRecoverIgnoresGarbageFilterBytes(t *testing.T) {
	ms := pagefile.NewMem(128, pagefile.CostModel{})
	opts := &Options{Store: ms, Bsize: 128, Ffactor: 4}
	tbl := mustOpen(t, "", opts)
	const nkeys = 60
	for i := 0; i < nkeys; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	// Record the primaries of the synced state before dirtying the file:
	// the extra Put below may split in memory, and the on-disk header
	// Recover reads still describes this geometry.
	var primaries []uint32
	for b := uint32(0); b <= tbl.hdr.maxBucket; b++ {
		primaries = append(primaries, tbl.hdr.bucketToPage(b))
	}
	if len(primaries) < 4 {
		t.Fatalf("workload built only %d buckets; want splits", len(primaries))
	}
	// Durably mark the file dirty (the mutation itself stays in the
	// pool), then abandon the table: ms now holds the synced state of a
	// crashed process.
	if err := tbl.Put(key(nkeys), val(nkeys)); err != nil {
		t.Fatal(err)
	}

	// Plant garbage in every primary's filter region, alternating
	// between "filter claims empty" (the nastiest lie: every stored key
	// would be a false negative) and "filter full of wrong tags".
	buf := make([]byte, 128)
	base := slotBaseFor(128)
	for i, pn := range primaries {
		if err := ms.ReadPage(pn, buf); err != nil {
			t.Fatalf("read primary %d: %v", pn, err)
		}
		if i%2 == 0 {
			for off := fltCountOff; off < base; off++ {
				buf[off] = 0
			}
		} else {
			buf[fltCountOff] = byte(tagCapFor(128))
			buf[fltFlagsOff] = 0
			buf[fltChainOff] = 200
			for off := fltTagsOff; off < base; off++ {
				buf[off] = 0xAA
			}
		}
		if err := ms.WritePage(pn, buf); err != nil {
			t.Fatalf("write primary %d: %v", pn, err)
		}
	}

	rec, rep, err := Recover("", &Options{Store: ms, Bsize: 128, Ffactor: 4})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	if rep.FiltersRebuilt == 0 {
		t.Fatalf("recovery rebuilt no filters; report %+v", rep)
	}
	// Every synced key must be found: a trusted garbage filter would
	// answer "absent" for all of them.
	for i := 0; i < nkeys; i++ {
		v, err := rec.Get(key(i))
		if err != nil {
			t.Fatalf("get key %d after rebuild: %v (false negative from planted filter bytes?)", i, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("get key %d = %q, want %q", i, v, val(i))
		}
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("post-recovery check: %v", err)
	}
}

// TestConcurrentMissStormDuringSplits is the read-acceleration race
// stress: a storm of negative lookups (the filter's fast path) runs
// against writers whose inserts continuously force incremental bucket
// splits and chain rebuilds, with a pool small enough to keep chain
// walks evicting and refaulting chain pages. Run with
// -race. Stored keys probed concurrently must never be reported absent
// — the filter is only allowed false positives, under any interleaving
// with split-driven filter rewrites.
func TestConcurrentMissStormDuringSplits(t *testing.T) {
	tbl := mustOpen(t, "", &Options{
		Bsize:     256,
		Ffactor:   8,
		CacheSize: 256 * 16, // small pool: misses fault and evict
	})
	defer tbl.Close()

	const seed = 400
	for i := 0; i < seed; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var inserted atomic.Int64
	inserted.Store(seed)
	readers := runtime.GOMAXPROCS(0) * 2
	if readers < 4 {
		readers = 4
	}
	errs := make(chan error, readers+2)
	var writerWG, readerWG sync.WaitGroup

	// Two writers force splits for the storm's whole duration; they run
	// until the readers have finished their quota.
	for w := 0; w < 2; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for !stop.Load() {
				n := int(inserted.Add(1))
				if err := tbl.Put(key(n), val(n)); err != nil {
					errs <- fmt.Errorf("writer %d: put %d: %v", w, n, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; i < 4000; i++ {
				// Misses exercise the filter's "definitely absent" path.
				miss := []byte(fmt.Sprintf("absent-%d-%d", r, i))
				if _, err := tbl.Get(miss); !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("reader %d: miss %q: %v", r, miss, err)
					return
				}
				// A seed key must never be a false negative, no matter
				// what the concurrent splits do to its bucket's filter.
				probe := (r*7 + i) % seed
				if v, err := tbl.Get(key(probe)); err != nil {
					errs <- fmt.Errorf("reader %d: stored key %d reported %v (false negative)", r, probe, err)
					return
				} else if !bytes.Equal(v, val(probe)) {
					errs <- fmt.Errorf("reader %d: stored key %d = %q", r, probe, v)
					return
				}
			}
		}(r)
	}

	readerWG.Wait()
	stop.Store(true)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := int(inserted.Load()); got <= seed {
		t.Fatalf("writers inserted nothing beyond the seed (%d)", got)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("post-storm check: %v", err)
	}
}

// TestRecoverReadsEachPageOnce: a dirty Recover certifies the file and
// rebuilds its filters in one walk, so it reads the store at most once
// per page reachable from the buckets, plus the header pages, plus once
// per page it plans to rewrite (torn filter regions here).
func TestRecoverReadsEachPageOnce(t *testing.T) {
	for _, nbig := range []int{0, 80} {
		t.Run(fmt.Sprintf("big%d", nbig), func(t *testing.T) {
			ms := pagefile.NewMem(256, pagefile.CostModel{})
			tbl := mustOpen(t, "", &Options{Store: ms, Bsize: 256, Ffactor: 16})
			for i := 0; i < 3000; i++ {
				if err := tbl.Put(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < nbig; i++ {
				if err := tbl.Put(key(5000+i), bytes.Repeat([]byte{'b'}, 600)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.Sync(); err != nil {
				t.Fatal(err)
			}
			nbuckets := tbl.hdr.maxBucket + 1
			// Tear the filter region of every tenth primary, then mark
			// the file dirty and abandon the table.
			buf := make([]byte, 256)
			for b := uint32(0); b < nbuckets; b += 10 {
				pn := tbl.hdr.bucketToPage(b)
				if err := ms.ReadPage(pn, buf); err != nil {
					t.Fatal(err)
				}
				buf[fltChainOff] ^= 0x7f
				if err := ms.WritePage(pn, buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.Put(key(9999), val(9999)); err != nil {
				t.Fatal(err)
			}

			before := ms.Stats().Reads
			rec, rep, err := Recover("", &Options{Store: ms})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			reads := ms.Stats().Reads - before
			_, inUse, err := rec.allocatedPages()
			if err != nil {
				t.Fatal(err)
			}
			reachable := int64(nbuckets) + int64(inUse)
			planned := int64(rep.PagesReset + rep.LinksCut + rep.RefsDropped + rep.FiltersRebuilt)
			hdrPages := int64((headerSize + 255) / 256)
			t.Logf("%d reachable pages, %d planned, %d reads", reachable, planned, reads)
			if rep.FiltersRebuilt == 0 {
				t.Fatal("no torn filter was rebuilt")
			}
			if reads > reachable+hdrPages+planned {
				t.Fatalf("Recover read the store %d times: %d reachable pages, %d header pages, %d planned rewrites",
					reads, reachable, hdrPages, planned)
			}
		})
	}
}
