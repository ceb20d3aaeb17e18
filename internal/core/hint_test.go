package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"unixhash/internal/buffer"
)

// hintTable opens a memory table whose keys wkey(0..n-1) all land in one
// bucket of 1024-byte pages, with 4-byte values: ~30 pairs a page.
func hintTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 1 << 20, ControlledOnly: true})
	t.Cleanup(func() { tbl.Close() })
	for i := 0; i < n; i++ {
		if err := tbl.Put(wkey(i), hintVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func hintVal(i int) []byte { return []byte(fmt.Sprintf("v%03d", i)) }

// readHinted gets every key wkey(0..n-1) and checks its value.
func readHinted(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got, err := tbl.Get(wkey(i)); err != nil || !bytes.Equal(got, hintVal(i)) {
			t.Fatalf("Get(%q) = %q, %v; want %q", wkey(i), got, err, hintVal(i))
		}
	}
}

// hintStates counts the resident chain pages of every bucket by hint
// state.
func hintStates(t *testing.T, tbl *Table) map[uint32]int {
	t.Helper()
	states := map[uint32]int{}
	for b := uint32(0); b <= tbl.hdr.maxBucket; b++ {
		if err := tbl.walkChain(nil, b, false, func(buf *buffer.Buf) (bool, error) {
			states[buf.HintState.Load()]++
			return false, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return states
}

// TestHintBuiltOnSecondSearch: a page's first search of a residency only
// marks it seen, the second builds its hint, and a write drops it.
func TestHintBuiltOnSecondSearch(t *testing.T) {
	tbl := hintTable(t, 20)
	pb, err := tbl.getBucketPage(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.pool.Put(pb)
	for i, want := range []uint32{hintSeen, hintReady, hintReady} {
		if _, err := tbl.Get(wkey(i)); err != nil {
			t.Fatal(err)
		}
		if got := pb.HintState.Load(); got != want {
			t.Fatalf("after %d searches the hint state is %d, want %d", i+1, got, want)
		}
	}
	if n := page(pb.Page).nentries(); len(pb.Hint) != n {
		t.Fatalf("hint holds %d fingerprints for %d entries", len(pb.Hint), n)
	}
	if err := tbl.Put(wkey(0), []byte("v999")); err != nil {
		t.Fatal(err)
	}
	if got := pb.HintState.Load(); got != hintNone {
		t.Fatalf("a write left the hint in state %d", got)
	}
}

// TestHintKeptByFilterOnlyWrite: a put and a delete on an overflow page
// change only the primary's filter region, so the primary keeps its
// ready hint while the overflow page's is dropped.
func TestHintKeptByFilterOnlyWrite(t *testing.T) {
	const n = 100
	tbl := hintTable(t, n)
	pb, err := tbl.getBucketPage(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.pool.Put(pb)
	readHinted(t, tbl, n)
	readHinted(t, tbl, n)
	entries := page(pb.Page).nentries()
	if entries >= n || pb.HintState.Load() != hintReady {
		t.Fatalf("primary holds %d of %d keys in hint state %d: want a chain and a ready hint", entries, n, pb.HintState.Load())
	}
	for _, write := range []func() error{
		func() error { return tbl.Put([]byte("w999."), []byte("v999")) },
		func() error { return tbl.Delete(wkey(n - 1)) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if got := page(pb.Page).nentries(); got != entries {
			t.Fatalf("the write landed on the primary (%d entries, was %d)", got, entries)
		}
		if got := pb.HintState.Load(); got != hintReady {
			t.Fatalf("a write to an overflow page left the primary's hint in state %d", got)
		}
		if s := hintStates(t, tbl); s[hintNone] == 0 {
			t.Fatalf("hint states %v: the written overflow page kept its hint", s)
		}
	}
	readHinted(t, tbl, n-1)
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestHintSkipsBigPairPages: a page that holds a big-pair ref gets no
// hint, and its lookups still find every key.
func TestHintSkipsBigPairPages(t *testing.T) {
	tbl := hintTable(t, 10)
	big := bytes.Repeat([]byte("B"), 3000)
	if err := tbl.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		readHinted(t, tbl, 10)
		if got, err := tbl.Get([]byte("big")); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("Get(big) = %d bytes, %v", len(got), err)
		}
	}
	if s := hintStates(t, tbl); s[hintReady] != 0 || s[hintNo] == 0 {
		t.Fatalf("hint states %v: want the big pair's page absent and none ready", s)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFindsStaleHint: a page changed without MarkDirty keeps a hint
// that no longer matches its slots. Lookups still answer right (a hint
// only shortens a hit), and Check names the page.
func TestCheckFindsStaleHint(t *testing.T) {
	const n = 20
	tbl := hintTable(t, n)
	readHinted(t, tbl, n)
	if err := tbl.Check(); err != nil {
		t.Fatalf("Check with fresh hints: %v", err)
	}
	pb, err := tbl.getBucketPage(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pb.HintState.Load() != hintReady {
		t.Fatalf("primary hint state %d after two searches, want ready", pb.HintState.Load())
	}
	// Swap two equal-sized pairs with different fingerprints: the page
	// stays valid, holds the same pairs and the same tags, but its slot
	// order no longer matches the hint.
	pg, j := page(pb.Page), 1
	for pb.Hint[j] == pb.Hint[0] {
		j++
	}
	k0, d0, _ := pg.pairAt(0)
	kj, dj, _ := pg.pairAt(j)
	swap := func(a, b []byte) {
		tmp := bytes.Clone(a)
		copy(a, b)
		copy(b, tmp)
	}
	swap(k0, kj)
	swap(d0, dj)
	pb.Dirty.Store(true) // deliberately not MarkDirty
	tbl.pool.Put(pb)

	readHinted(t, tbl, n)
	err = tbl.Check()
	if err == nil || !strings.Contains(err.Error(), "search hint") {
		t.Fatalf("Check of a page changed without MarkDirty: %v, want a search hint error", err)
	}
	pb.MarkDirty()
	if err := tbl.Check(); err != nil {
		t.Fatalf("Check after MarkDirty dropped the hint: %v", err)
	}
}

// TestGetBufHintedZeroAlloc: once one pass has read every key of a
// multi-page table resident in its pool, building each page's hint, a
// second full pass of GetBuf allocates nothing at all. Mallocs are
// counted over the whole pass, not averaged per call, so a single
// rebuild would show; the warm pass allocates at most once per build.
func TestGetBufHintedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 16, CacheSize: 1 << 20})
	defer tbl.Close()
	const n = 2000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		if err := tbl.Put(keys[i], []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 64)
	pass := func() uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range keys {
			var err error
			if buf, err = tbl.GetBuf(k, buf); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	warm := pass()
	s := hintStates(t, tbl)
	if pages := s[hintNone] + s[hintSeen] + s[hintReady] + s[hintNo]; s[hintReady] != pages || pages < 2 {
		t.Fatalf("hint states after the warm pass: %v, want all %d pages ready", s, pages)
	}
	if warm > uint64(s[hintReady]) {
		t.Errorf("warm pass allocated %d times building %d hints, want at most one per build", warm, s[hintReady])
	}
	if got := pass(); got != 0 {
		t.Fatalf("second pass of %d GetBufs allocated %d times, want 0", n, got)
	}
}

// TestHintRace: many readers build the hints of one bucket's pages while
// writers on the same stripe change them. Under -race this checks the
// hint's publication (one CAS picks the builder, readers use it only
// once it is ready) against MarkDirty; everywhere it checks that every
// read of a stable key answers right whatever state the hint is in.
func TestHintRace(t *testing.T) {
	const stable, churn, readers, rounds = 40, 20, 6, 1000
	tbl := hintTable(t, stable)
	churnKey := func(i int) []byte { return []byte(fmt.Sprintf("c%03d.", i)) }
	var wg sync.WaitGroup
	errs := make(chan error, readers+2)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dst := make([]byte, 0, 16)
			for i := 0; i < rounds*stable/4; i++ {
				k := (i*7 + r) % stable
				var err error
				if dst, err = tbl.GetBuf(wkey(k), dst); err != nil || !bytes.Equal(dst, hintVal(k)) {
					errs <- fmt.Errorf("reader %d: Get(%q) = %q, %v", r, wkey(k), dst, err)
					return
				}
				if _, err := tbl.Get(churnKey(i % churn)); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("reader %d: Get(%q): %v", r, churnKey(i%churn), err)
					return
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := churnKey((i*2 + w) % churn)
				var err error
				if i%3 == 2 {
					if err = tbl.Delete(k); errors.Is(err, ErrNotFound) {
						err = nil
					}
				} else {
					err = tbl.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d: %q: %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	readHinted(t, tbl, stable)
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}
