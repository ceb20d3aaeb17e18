package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"unixhash/internal/buffer"
	"unixhash/internal/pagefile"
	"unixhash/internal/wal"
)

func TestOpenCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.db")
	if err := os.WriteFile(path, make([]byte, 512), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); err == nil {
		t.Fatal("opened an all-zero file as a hash table")
	}
}

func TestOpenTruncatedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.db")
	tbl := mustOpen(t, path, nil)
	for i := 0; i < 100; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate to a fraction of the header.
	if err := os.Truncate(path, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); err == nil {
		t.Fatal("opened a truncated file")
	}
}

func TestOpenNotAFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.db")
	if err := os.WriteFile(path, []byte("not a hash db"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); err == nil {
		t.Fatal("opened a 13-byte text file")
	}
}

func TestWriteFaultSurfaces(t *testing.T) {
	inner := pagefile.NewMem(256)
	fs := pagefile.NewFault(inner)
	tbl, err := Open("", &Options{Store: fs, Bsize: 256, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()

	fs.Inject(pagefile.Fault{Op: pagefile.OpWrite, After: 5, Err: errors.New("disk full"), Page: pagefile.AnyPage})

	// With a minimal cache, inserts force evictions and hence writes;
	// the injected error must surface rather than be swallowed.
	var sawErr bool
	for i := 0; i < 5000; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		if err := tbl.Sync(); err == nil {
			t.Fatal("write fault never surfaced through Put or Sync")
		}
	}
}

func TestReadFaultSurfaces(t *testing.T) {
	inner := pagefile.NewMem(256)
	{
		tbl, err := Open("", &Options{Store: inner, Bsize: 256})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if err := tbl.Put(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}
	}

	fs := pagefile.NewFault(inner)
	fs.Inject(pagefile.Fault{Op: pagefile.OpRead, After: 10, Err: errors.New("I/O error"), Page: pagefile.AnyPage})
	tbl, err := Open("", &Options{Store: fs, Bsize: 256, CacheSize: 1})
	if err != nil {
		// The fault may hit during open; that is a valid surface too.
		return
	}
	defer tbl.Close()
	var sawErr bool
	for i := 0; i < 2000; i++ {
		if _, err := tbl.Get(key(i)); err != nil && !errors.Is(err, ErrNotFound) {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("read fault never surfaced through Get")
	}
}

func TestCallerOwnedStoreStaysOpen(t *testing.T) {
	store := pagefile.NewMem(256)
	tbl, err := Open("", &Options{Store: store, Bsize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	// The store is caller-owned: reopening over it must find the data.
	tbl2, err := Open("", &Options{Store: store, Bsize: 256})
	if err != nil {
		t.Fatalf("reopen over caller store: %v", err)
	}
	defer tbl2.Close()
	got, err := tbl2.Get([]byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatalf("Get after reopen = %q, %v", got, err)
	}
}

func TestStorePageSizeMismatch(t *testing.T) {
	store := pagefile.NewMem(256)
	tbl, err := Open("", &Options{Store: store, Bsize: 256})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Put([]byte("k"), []byte("v"))
	tbl.Close()

	// A store whose page size disagrees with the header must be refused.
	// Simulate by wrapping the same pages in a differently-sized reader:
	// here we simply corrupt the recorded bsize.
	buf := make([]byte, 256)
	if err := store.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	le.PutUint32(buf[12:], 512) // bsize field
	le.PutUint32(buf[16:], 9)   // matching bshift
	if err := store.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("", &Options{Store: store}); err == nil {
		t.Fatal("opened table whose header bsize disagrees with the store")
	}
}

// midChainWrites are the write entry points a mid-chain fault is driven
// through, each storing the given fresh pairs.
var midChainWrites = map[string]func(*Table, []Pair) error{
	"PutBatch": func(tbl *Table, ps []Pair) error { return tbl.PutBatch(ps) },
	"Put":      func(tbl *Table, ps []Pair) error { return tbl.Put(ps[0].Key, ps[0].Data) },
	"Commit": func(tbl *Table, ps []Pair) error {
		x, err := tbl.Begin()
		if err != nil {
			return err
		}
		if err := x.Put(ps[0].Key, ps[0].Data); err != nil {
			return err
		}
		return x.Commit()
	},
}

// midChainKeys is how many keys midChainTable loads: two 104-byte pairs
// a page, and 24 tags fit the filter's 32.
const midChainKeys = 24

// midChainTable opens one bucket whose chain is longer than the pool (the
// 8-buffer floor), with room opened on chain position 3, synced and with
// every page evicted, so each page the next write reaches is a store
// read. It returns the fault store, the physical page at chain position
// 8, and two fresh pairs — keys absent from the table — whose tags the
// primary's filter carries (maybe, true) or lacks (maybe, false).
func midChainTable(t *testing.T, maybe bool) (*Table, *pagefile.FaultStore, uint32, []Pair) {
	t.Helper()
	const roomPos, faultPos = 3, 8
	fs := pagefile.NewFault(pagefile.NewMem(256))
	tbl := mustOpen(t, "", &Options{
		Store: fs, Bsize: 256, CacheSize: 4 * 256, WALDevice: wal.NewMemDevice(),
		Ffactor: 1 << 20, ControlledOnly: true, // one bucket, never split
	})
	t.Cleanup(func() { tbl.Close() })
	for i := 0; i < midChainKeys; i++ {
		if err := tbl.Put(key(i), bytes.Repeat([]byte{'v'}, 90)); err != nil {
			t.Fatal(err)
		}
	}
	// The chain as laid out: physical page and first key of every
	// position.
	var pages []uint32
	var firstKey [][]byte
	if err := tbl.walkChain(nil, 0, false, func(b *buffer.Buf) (bool, error) {
		pg := tbl.hdr.bucketToPage(0)
		if b.Addr.Ovfl {
			pg = tbl.hdr.oaddrToPage(oaddr(b.Addr.N))
		}
		pages = append(pages, pg)
		k, _, ok := page(b.Page).pairAt(0)
		if !ok {
			return false, fmt.Errorf("page %d: entry 0 is not a regular pair", pg)
		}
		firstKey = append(firstKey, append([]byte(nil), k...))
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pages) <= faultPos {
		t.Fatalf("chain has %d pages, want more than %d", len(pages), faultPos)
	}
	if err := tbl.Delete(firstKey[roomPos]); err != nil {
		t.Fatal(err)
	}
	pb, err := tbl.getBucketPage(nil, 0)
	if err != nil || page(pb.Page).fltSaturatedBit() {
		t.Fatalf("primary filter unusable (err %v): the test would be vacuous", err)
	}
	var fresh []Pair
	for i := 0; len(fresh) < 2; i++ {
		k := []byte(fmt.Sprintf("fresh-%d", i))
		if page(pb.Page).filterHas(tbl.hash(k)) == maybe {
			fresh = append(fresh, Pair{Key: k, Data: []byte("f")})
		}
	}
	tbl.pool.Put(pb)
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.pool.InvalidateAll(); err != nil {
		t.Fatal(err)
	}
	return tbl, fs, pages[faultPos], fresh
}

// TestFaultMidChainWriteKeepsFilter pins the one direction DESIGN §14
// forbids against a write that fails part-way down a chain: whatever a
// failed PutBatch, Put or commit apply managed to place must be known to
// the primary's tag filter, or Get answers "definitely absent" for a key
// that Seq and Check can see. The fresh keys share a tag with a resident
// key, so the filter cannot prove them absent: the walk goes on past
// chain position 3, where a fresh pair lands, to the page whose read
// faults.
func TestFaultMidChainWriteKeepsFilter(t *testing.T) {
	for name, write := range midChainWrites {
		write := write
		t.Run(name, func(t *testing.T) {
			tbl, fs, faultPage, fresh := midChainTable(t, true)
			fs.Inject(pagefile.Fault{Op: pagefile.OpRead, After: 1, Err: errors.New("injected read fault"), Page: faultPage})
			werr := write(tbl, fresh)
			fs.Clear()
			if werr == nil {
				t.Fatal("write succeeded across a faulted chain page")
			}

			seen := 0
			for it := tbl.Iter(); it.Next(); seen++ {
				if _, err := tbl.Get(it.Key()); err != nil {
					t.Errorf("Seq yields %q but Get says %v (the write returned %v)", it.Key(), err, werr)
				}
			}
			if seen < midChainKeys-1 {
				t.Errorf("Seq yielded %d keys, want at least %d", seen, midChainKeys-1)
			}
			if err := tbl.Check(); err != nil {
				t.Errorf("Check after the write returned %v: %v", werr, err)
			}
		})
	}
}

// TestFaultMidChainAbsentKeySkipsChain: a fresh key the primary's filter
// rules out has no copy to look for, so its write stops at chain position
// 3, the first page with room, and never reads the faulted page beyond.
func TestFaultMidChainAbsentKeySkipsChain(t *testing.T) {
	for name, write := range midChainWrites {
		write := write
		t.Run(name, func(t *testing.T) {
			tbl, fs, faultPage, fresh := midChainTable(t, false)
			fs.Inject(pagefile.Fault{Op: pagefile.OpRead, After: 1, Err: errors.New("injected read fault"), Page: faultPage})
			if err := write(tbl, fresh); err != nil {
				t.Fatalf("write of a key the filter rules out: %v", err)
			}
			fs.Clear()
			if got, err := tbl.Get(fresh[0].Key); err != nil || !bytes.Equal(got, fresh[0].Data) {
				t.Fatalf("Get(%q) = %q, %v", fresh[0].Key, got, err)
			}
			if err := tbl.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
