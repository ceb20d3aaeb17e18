package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestOvflPointAdvancesEarly drives one split point's page-number space
// to exhaustion so allocation must move to the next split point ahead of
// table growth, the rarely-exercised branch of the buddy-in-waiting
// allocator. bsize 64 caps a split point at (64-4)*8 = 480 pages.
func TestOvflPointAdvancesEarly(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 64, Ffactor: 1, Nelem: 1, CacheSize: 4 << 10, ControlledOnly: true})
	defer tbl.Close()

	// Big pairs burn overflow pages without advancing the table (with
	// controlled-only splitting and ffactor 1, splits track nkeys, so
	// use few keys with huge data).
	startPoint := tbl.Geometry().OvflPoint
	for i := 0; i < 12; i++ {
		key := []byte(fmt.Sprintf("big%02d", i))
		data := bytes.Repeat([]byte{byte(i)}, 60*64) // ~60 overflow pages each
		if err := tbl.Put(key, data); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if got := tbl.Geometry().OvflPoint; got <= startPoint+1 {
		t.Fatalf("ovflPoint = %d (start %d): early advancement never happened", got, startPoint)
	}
	// Everything must still read back.
	for i := 0; i < 12; i++ {
		key := []byte(fmt.Sprintf("big%02d", i))
		got, err := tbl.Get(key)
		if err != nil || len(got) != 60*64 || got[0] != byte(i) {
			t.Fatalf("Get %d after advancement: %d bytes, %v", i, len(got), err)
		}
	}
}

// TestOvflPointAdvancePersists makes sure the early-advanced allocator
// state survives a close/reopen (spares carried forward in the header).
func TestOvflPointAdvancePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adv.db")
	tbl := mustOpen(t, path, &Options{Bsize: 64, Ffactor: 1, Nelem: 1, ControlledOnly: true})
	for i := 0; i < 12; i++ {
		if err := tbl.Put([]byte(fmt.Sprintf("big%02d", i)), bytes.Repeat([]byte{byte(i)}, 60*64)); err != nil {
			t.Fatal(err)
		}
	}
	g1 := tbl.Geometry()
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	tbl = mustOpen(t, path, nil)
	defer tbl.Close()
	g2 := tbl.Geometry()
	if g1.OvflPoint != g2.OvflPoint || g1.Spares != g2.Spares {
		t.Fatalf("allocator state changed across reopen:\n %+v\n %+v", g1, g2)
	}
	for i := 0; i < 12; i++ {
		got, err := tbl.Get([]byte(fmt.Sprintf("big%02d", i)))
		if err != nil || len(got) != 60*64 {
			t.Fatalf("Get %d after reopen: %d bytes, %v", i, len(got), err)
		}
	}
	// And the table must still be writable with a consistent allocator.
	if err := tbl.Put([]byte("more"), bytes.Repeat([]byte{9}, 30*64)); err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
}

// TestOverflowReclaimAndReuse checks that pages freed by deleting big
// pairs are reused by later allocations instead of growing the file.
func TestOverflowReclaimAndReuse(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Nelem: 64})
	defer tbl.Close()

	put := func(k string, n int) {
		t.Helper()
		if err := tbl.Put([]byte(k), bytes.Repeat([]byte("x"), n)); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 10000)
	put("b", 10000)
	allocsBefore := counter(t, tbl, MetricOvflAllocs)
	if err := tbl.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete([]byte("b")); err != nil {
		t.Fatal(err)
	}
	frees := counter(t, tbl, MetricOvflFrees)
	if frees == 0 {
		t.Fatal("deleting big pairs freed nothing")
	}
	// Rewriting the same data must reuse the freed pages, not allocate.
	put("c", 10000)
	put("d", 10000)
	allocs, reuses := counter(t, tbl, MetricOvflAllocs), counter(t, tbl, MetricOvflReuses)
	if allocs != allocsBefore {
		t.Fatalf("fresh allocations grew %d -> %d despite %d freed pages (reuses: %d)",
			allocsBefore, allocs, frees, reuses)
	}
	if reuses == 0 {
		t.Fatal("no reuse recorded")
	}
}

// TestDeleteShrinksChains verifies that emptying overflow pages unlinks
// and reclaims them (the delete path's unlink logic).
func TestDeleteShrinksChains(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 64, Ffactor: 64, Nelem: 1, ControlledOnly: true})
	defer tbl.Close()
	// Everything lands in one bucket (one bucket, no splits): the chain
	// grows long.
	const n = 100
	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := ovflInUse(t, tbl)
	if before == 0 {
		t.Fatal("no overflow chain was built")
	}
	for i := 0; i < n; i++ {
		if err := tbl.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if after := ovflInUse(t, tbl); after >= before {
		t.Fatalf("overflow pages %d -> %d after deleting everything", before, after)
	}
}

// TestIteratorDuringMutation: mutating while scanning must never corrupt
// the table or crash; the scan may skip or repeat (documented), but keys
// it returns must have existed at some point and the table must stay
// model-consistent afterwards.
func TestIteratorDuringMutation(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	defer tbl.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	it := tbl.Iter()
	seen := 0
	for it.Next() {
		seen++
		if seen%10 == 0 {
			// Delete some and insert some mid-scan.
			_ = tbl.Delete(key(seen))
			if err := tbl.Put([]byte(fmt.Sprintf("new-%d", seen)), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator errored during mutation: %v", err)
	}
	// Table integrity after the storm: every key Get-able, count sane.
	count := 0
	it2 := tbl.Iter()
	for it2.Next() {
		k := append([]byte(nil), it2.Key()...)
		if _, err := tbl.Get(k); err != nil {
			t.Fatalf("key %q from scan not gettable: %v", k, err)
		}
		count++
	}
	if err := it2.Err(); err != nil {
		t.Fatal(err)
	}
	if count != tbl.Len() {
		t.Fatalf("clean rescan saw %d keys, Len says %d", count, tbl.Len())
	}
}

// TestConcurrentAccess hammers one table from many goroutines; run with
// -race this verifies the mutex discipline.
func TestConcurrentAccess(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				if err := tbl.Put(k, val(i)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := tbl.Get(k); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if i%3 == 0 {
					if err := tbl.Delete(k); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// A concurrent scanner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 5; r++ {
			it := tbl.Iter()
			for it.Next() {
			}
			if err := it.Err(); err != nil {
				t.Errorf("concurrent scan: %v", err)
			}
		}
	}()
	wg.Wait()
	want := 8 * 200 // each worker keeps 2/3 of 300
	if tbl.Len() != want {
		t.Fatalf("Len = %d, want %d", tbl.Len(), want)
	}
}

// TestDumpSmoke exercises the dump path on a table with splits, chains,
// big pairs and reclaimed pages.
func TestDumpSmoke(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 8})
	defer tbl.Close()
	for i := 0; i < 300; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Put([]byte("big"), bytes.Repeat([]byte("B"), 5000)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.Dump(&sb, true); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"hash table:", "spares", "bucket 0", "BIG"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump output missing %q:\n%s", want, out[:min(len(out), 600)])
		}
	}
}

// TestKeysWithNULsAndBinaryData: keys and data are arbitrary byte
// strings; nothing may assume text.
func TestKeysWithNULsAndBinaryData(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()
	keys := [][]byte{
		{0},
		{0, 0, 0},
		{0xFF, 0x00, 0xFF},
		bytes.Repeat([]byte{0}, 100),
		[]byte("ends with nul\x00"),
	}
	for i, k := range keys {
		if err := tbl.Put(k, []byte{byte(i)}); err != nil {
			t.Fatalf("Put %x: %v", k, err)
		}
	}
	if tbl.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d (binary keys conflated?)", tbl.Len(), len(keys))
	}
	for i, k := range keys {
		got, err := tbl.Get(k)
		if err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("Get %x = %x, %v", k, got, err)
		}
	}
}

// TestZeroLengthData: empty data values are legal and distinct from
// missing keys.
func TestZeroLengthData(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()
	if err := tbl.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get([]byte("empty"))
	if err != nil {
		t.Fatalf("Get = %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("Get = %x, want empty", got)
	}
	ok, err := tbl.Has([]byte("empty"))
	if err != nil || !ok {
		t.Fatalf("Has = %v, %v", ok, err)
	}
}

// TestMaxKeySizes: keys at and around the big-pair boundary.
func TestAroundBigBoundary(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256})
	defer tbl.Close()
	// The boundary: 2*slot + klen + dlen > bsize - hdr - reserve.
	for total := 240; total <= 252; total++ {
		k := bytes.Repeat([]byte("k"), 10)
		d := bytes.Repeat([]byte("d"), total-10)
		kk := append([]byte(fmt.Sprintf("%03d", total)), k...)
		if err := tbl.Put(kk, d); err != nil {
			t.Fatalf("total %d: %v", total, err)
		}
		got, err := tbl.Get(kk)
		if err != nil || !bytes.Equal(got, d) {
			t.Fatalf("total %d roundtrip: %v", total, err)
		}
	}
}

func TestErrorsAreDistinguishable(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()
	tbl.Put([]byte("k"), []byte("v"))
	if err := tbl.PutNew([]byte("k"), nil); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("PutNew dup = %v", err)
	}
	if _, err := tbl.Get([]byte("zz")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v", err)
	}
	if err := tbl.Delete([]byte("zz")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing = %v", err)
	}
}
