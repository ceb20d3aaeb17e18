package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"unixhash/internal/hashfunc"
)

func mustOpen(t *testing.T, path string, opts *Options) *Table {
	t.Helper()
	tbl, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", path, err)
	}
	return tbl
}

func key(i int) []byte  { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte  { return []byte(fmt.Sprintf("value-%d", i)) }
func val2(i int) []byte { return []byte(fmt.Sprintf("other-value-%d", i)) }

// counter reads one of tbl's registry counters.
func counter(t *testing.T, tbl *Table, name string) int64 {
	t.Helper()
	snap, err := tbl.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap.Counter(name)
}

// splitCount counts tbl's bucket splits of both kinds.
func splitCount(t *testing.T, tbl *Table) int64 {
	t.Helper()
	return counter(t, tbl, MetricSplitsControlled) + counter(t, tbl, MetricSplitsUncontrolled)
}

// ovflInUse counts tbl's overflow pages in use, chain and big-pair.
func ovflInUse(t *testing.T, tbl *Table) int {
	t.Helper()
	h, err := tbl.Heatmap()
	if err != nil {
		t.Fatal(err)
	}
	return h.OverflowPages + h.BigPairPages
}

func TestPutGetRoundtrip(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()

	if err := tbl.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := tbl.Get([]byte("hello"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "world" {
		t.Fatalf("Get = %q, want %q", got, "world")
	}
	if _, err := tbl.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	if n := tbl.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestPutReplaces(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()

	for i := 0; i < 3; i++ {
		if err := tbl.Put([]byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	got, err := tbl.Get([]byte("k"))
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get = %q, %v; want v2", got, err)
	}
	if n := tbl.Len(); n != 1 {
		t.Fatalf("Len = %d after replacing puts, want 1", n)
	}
}

func TestPutNew(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()

	if err := tbl.PutNew([]byte("k"), []byte("v1")); err != nil {
		t.Fatalf("PutNew: %v", err)
	}
	if err := tbl.PutNew([]byte("k"), []byte("v2")); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("second PutNew = %v, want ErrKeyExists", err)
	}
	// The original value must be untouched.
	got, err := tbl.Get([]byte("k"))
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v; want v1 intact", got, err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()
	if err := tbl.Put(nil, []byte("v")); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Put(nil) = %v, want ErrEmptyKey", err)
	}
	if _, err := tbl.Get(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Get(nil) = %v, want ErrEmptyKey", err)
	}
	if err := tbl.Delete(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Delete(nil) = %v, want ErrEmptyKey", err)
	}
}

func TestManyKeysWithSplits(t *testing.T) {
	const n = 5000
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()

	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if got := tbl.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if splitCount(t, tbl) == 0 {
		t.Fatal("no bucket splits occurred over 5000 inserts")
	}
	for i := 0; i < n; i++ {
		got, err := tbl.Get(key(i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, val(i)) {
			t.Fatalf("Get %d = %q, want %q", i, got, val(i))
		}
	}
}

func TestDelete(t *testing.T) {
	const n = 1000
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	defer tbl.Close()

	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Delete the even keys.
	for i := 0; i < n; i += 2 {
		if err := tbl.Delete(key(i)); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	if got := tbl.Len(); got != n/2 {
		t.Fatalf("Len = %d, want %d", got, n/2)
	}
	for i := 0; i < n; i++ {
		_, err := tbl.Get(key(i))
		if i%2 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get deleted %d = %v, want ErrNotFound", i, err)
			}
		} else if err != nil {
			t.Fatalf("Get kept %d: %v", i, err)
		}
	}
	if err := tbl.Delete(key(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete = %v, want ErrNotFound", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	const n = 2000
	path := filepath.Join(t.TempDir(), "test.db")

	tbl := mustOpen(t, path, &Options{Bsize: 512, Ffactor: 16})
	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	tbl = mustOpen(t, path, nil) // geometry comes from the file
	defer tbl.Close()
	if g := tbl.Geometry(); g.Bsize != 512 || g.Ffactor != 16 {
		t.Fatalf("reopened geometry = %+v, want bsize 512 ffactor 16", g)
	}
	if got := tbl.Len(); got != n {
		t.Fatalf("Len after reopen = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		got, err := tbl.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("Get %d after reopen = %q, %v", i, got, err)
		}
	}
}

func TestReopenReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ro.db")
	tbl := mustOpen(t, path, nil)
	if err := tbl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	tbl = mustOpen(t, path, &Options{ReadOnly: true})
	defer tbl.Close()
	if _, err := tbl.Get([]byte("k")); err != nil {
		t.Fatalf("Get on read-only table: %v", err)
	}
	if err := tbl.Put([]byte("k2"), []byte("v2")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on read-only table = %v, want ErrReadOnly", err)
	}
	if err := tbl.Delete([]byte("k")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete on read-only table = %v, want ErrReadOnly", err)
	}
}

func TestOpenMissingReadOnly(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "missing.db"), &Options{ReadOnly: true})
	if err == nil {
		t.Fatal("Open(missing, ReadOnly) succeeded, want error")
	}
}

func TestHashFunctionMismatchDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hf.db")
	tbl := mustOpen(t, path, &Options{Hash: hashfunc.Default})
	if err := tbl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	_, err := Open(path, &Options{Hash: hashfunc.FNV1a})
	if !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("Open with different hash = %v, want ErrHashMismatch", err)
	}
	// The original function still works.
	tbl = mustOpen(t, path, &Options{Hash: hashfunc.Default})
	tbl.Close()
}

func TestBigPairs(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256})
	defer tbl.Close()

	big := func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }

	cases := []struct {
		name string
		key  []byte
		data []byte
	}{
		{"big-data", []byte("bk1"), big('d', 10000)},
		{"big-key", big('K', 5000), []byte("small")},
		{"big-both", big('B', 4000), big('b', 4000)},
		{"just-over", []byte("bk2"), big('x', 256)},
		{"multi-page", []byte("bk3"), big('y', 100000)},
	}
	for _, c := range cases {
		if err := tbl.Put(c.key, c.data); err != nil {
			t.Fatalf("%s: Put: %v", c.name, err)
		}
	}
	if n := counter(t, tbl, MetricBigPairs); n != int64(len(cases)) {
		t.Fatalf("BigPairs = %d, want %d", n, len(cases))
	}
	for _, c := range cases {
		got, err := tbl.Get(c.key)
		if err != nil {
			t.Fatalf("%s: Get: %v", c.name, err)
		}
		if !bytes.Equal(got, c.data) {
			t.Fatalf("%s: Get returned %d bytes, want %d", c.name, len(got), len(c.data))
		}
	}
	// Replace a big pair with a small one and vice versa.
	if err := tbl.Put([]byte("bk1"), []byte("now small")); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get([]byte("bk1"))
	if err != nil || string(got) != "now small" {
		t.Fatalf("Get bk1 = %q, %v", got, err)
	}
	if err := tbl.Put([]byte("bk1"), big('z', 20000)); err != nil {
		t.Fatal(err)
	}
	got, err = tbl.Get([]byte("bk1"))
	if err != nil || len(got) != 20000 {
		t.Fatalf("Get bk1 = %d bytes, %v; want 20000", len(got), err)
	}

	// Delete big pairs; their chains must be reclaimed.
	before := ovflInUse(t, tbl)
	for _, c := range cases {
		if err := tbl.Delete(c.key); err != nil {
			t.Fatalf("%s: Delete: %v", c.name, err)
		}
	}
	if after := ovflInUse(t, tbl); after >= before {
		t.Fatalf("overflow pages %d -> %d: big-pair chains not reclaimed", before, after)
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tbl.Len())
	}
}

func TestBigPairsPersist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.db")
	data := bytes.Repeat([]byte("payload!"), 4096) // 32 KB
	tbl := mustOpen(t, path, &Options{Bsize: 256})
	if err := tbl.Put([]byte("big"), data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	tbl = mustOpen(t, path, nil)
	defer tbl.Close()
	got, err := tbl.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("big pair lost across reopen: %d bytes, %v", len(got), err)
	}
}

func TestIterator(t *testing.T) {
	const n = 3000
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()

	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		want[string(key(i))] = string(val(i))
	}
	// One big pair so the scan crosses a big-pair chain too.
	bigData := bytes.Repeat([]byte("B"), 5000)
	if err := tbl.Put([]byte("bigkey"), bigData); err != nil {
		t.Fatal(err)
	}
	want["bigkey"] = string(bigData)

	got := make(map[string]string, n+1)
	it := tbl.Iter()
	for it.Next() {
		if _, dup := got[string(it.Key())]; dup {
			t.Fatalf("iterator returned key %q twice", it.Key())
		}
		got[string(it.Key())] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterator returned %d pairs, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("iterator value for %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestIteratorEmptyTable(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()
	it := tbl.Iter()
	if it.Next() {
		t.Fatal("Next on empty table returned true")
	}
	if it.Err() != nil {
		t.Fatalf("Err on empty table: %v", it.Err())
	}
}

func TestNelemPresizing(t *testing.T) {
	// With nelem given, the table starts at full size and grows little.
	pre := mustOpen(t, "", &Options{Nelem: 10000, Ffactor: 8, Bsize: 256})
	defer pre.Close()
	g := pre.Geometry()
	if g.MaxBucket < 1023 { // 10000/8 -> 1250 -> next pow2 2048 buckets
		t.Fatalf("pre-sized MaxBucket = %d, want >= 1023", g.MaxBucket)
	}
	for i := 0; i < 10000; i++ {
		if err := pre.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	grown := mustOpen(t, "", &Options{Ffactor: 8, Bsize: 256})
	defer grown.Close()
	for i := 0; i < 10000; i++ {
		if err := grown.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	grownSplits := splitCount(t, grown)
	if grownSplits < 1000 {
		t.Fatalf("grown table split only %d times", grownSplits)
	}
	// Pre-sizing avoids the bulk of the split work (only uncontrolled
	// splits from unlucky buckets remain).
	if preSplits := splitCount(t, pre); preSplits >= grownSplits {
		t.Fatalf("pre-sized table split %d times, grown %d — pre-sizing saved nothing",
			preSplits, grownSplits)
	}
	// Both must hold identical contents.
	for i := 0; i < 10000; i++ {
		a, err1 := pre.Get(key(i))
		b, err2 := grown.Get(key(i))
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			t.Fatalf("mismatch at %d: %v %v", i, err1, err2)
		}
	}
}

func TestTinyCache(t *testing.T) {
	// A pool at the minimum size must still support a large table.
	tbl := mustOpen(t, "", &Options{Bsize: 64, Ffactor: 1, CacheSize: 1})
	defer tbl.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := tbl.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("Get %d = %q, %v", i, got, err)
		}
	}
	if tbl.Pool().Counters().Evictions == 0 {
		t.Fatal("tiny cache produced no evictions")
	}
}

func TestCloseIdempotent(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := tbl.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if err := tbl.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
}

func TestBadOptions(t *testing.T) {
	cases := []Options{
		{Bsize: 100},   // not a power of two
		{Bsize: 32},    // too small
		{Bsize: 65536}, // too large
		{Ffactor: -1},
	}
	for _, o := range cases {
		o := o
		if _, err := Open("", &o); err == nil {
			t.Fatalf("Open with %+v succeeded, want error", o)
		}
	}
}

func TestVariousGeometries(t *testing.T) {
	for _, bsize := range []int{64, 128, 256, 1024, 4096} {
		for _, ff := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("bsize=%d,ff=%d", bsize, ff), func(t *testing.T) {
				tbl := mustOpen(t, "", &Options{Bsize: bsize, Ffactor: ff})
				defer tbl.Close()
				const n = 700
				for i := 0; i < n; i++ {
					if err := tbl.Put(key(i), val(i)); err != nil {
						t.Fatalf("Put %d: %v", i, err)
					}
				}
				for i := 0; i < n; i += 3 {
					if err := tbl.Delete(key(i)); err != nil {
						t.Fatalf("Delete %d: %v", i, err)
					}
				}
				for i := 0; i < n; i++ {
					got, err := tbl.Get(key(i))
					if i%3 == 0 {
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("Get %d = %v, want ErrNotFound", i, err)
						}
						continue
					}
					if err != nil || !bytes.Equal(got, val(i)) {
						t.Fatalf("Get %d = %q, %v", i, got, err)
					}
				}
			})
		}
	}
}

func TestUpdateChangesSize(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	defer tbl.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val2(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, err := tbl.Get(key(i))
		if err != nil || !bytes.Equal(got, val2(i)) {
			t.Fatalf("Get %d = %q, %v; want %q", i, got, err, val2(i))
		}
	}
}

func TestSyncThenCrashSimulation(t *testing.T) {
	// Everything written before Sync must be readable by a second handle
	// opened on the same file (simulating a reader after a crash of the
	// writer process post-sync).
	path := filepath.Join(t.TempDir(), "sync.db")
	tbl := mustOpen(t, path, nil)
	defer tbl.Close()
	for i := 0; i < 500; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	reader := mustOpen(t, path, &Options{ReadOnly: true})
	defer reader.Close()
	for i := 0; i < 500; i++ {
		got, err := reader.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("reader Get %d = %q, %v", i, got, err)
		}
	}
}
