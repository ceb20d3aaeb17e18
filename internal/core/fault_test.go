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
	inner := pagefile.NewMem(256, pagefile.CostModel{})
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
	inner := pagefile.NewMem(256, pagefile.CostModel{})
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
	store := pagefile.NewMem(256, pagefile.CostModel{})
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
	store := pagefile.NewMem(256, pagefile.CostModel{})
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

// TestFaultMidChainWriteKeepsFilter pins the one direction DESIGN §14
// forbids against a write that fails part-way down a chain: whatever a
// failed PutBatch, Put or commit apply managed to place must be known to
// the primary's tag filter, or Get answers "definitely absent" for a key
// that Seq and Check can see. One bucket holds a chain longer than the
// pool (the 8-buffer floor), with room opened on chain position 3, so a
// fresh pair lands there before the walk reaches the page whose read
// faults.
func TestFaultMidChainWriteKeepsFilter(t *testing.T) {
	const nkeys, roomPos, faultPos = 24, 3, 8 // two 104-byte pairs a page; 24 tags fit the filter's 32
	fresh := func(i int) Pair { return Pair{Key: []byte(fmt.Sprintf("fresh-%d", i)), Data: []byte("f")} }
	writes := map[string]func(*Table) error{
		"PutBatch": func(tbl *Table) error { return tbl.PutBatch([]Pair{fresh(0), fresh(1)}) },
		"Put":      func(tbl *Table) error { return tbl.Put(fresh(0).Key, fresh(0).Data) },
		"Commit": func(tbl *Table) error {
			x, err := tbl.Begin()
			if err != nil {
				return err
			}
			if err := x.Put(fresh(0).Key, fresh(0).Data); err != nil {
				return err
			}
			return x.Commit()
		},
	}
	for name, write := range writes {
		write := write
		t.Run(name, func(t *testing.T) {
			fs := pagefile.NewFault(pagefile.NewMem(256, pagefile.CostModel{}))
			tbl := mustOpen(t, "", &Options{
				Store: fs, Bsize: 256, CacheSize: 4 * 256, WALDevice: wal.NewMemDevice(),
				Ffactor: 1 << 20, ControlledOnly: true, // one bucket, never split
			})
			defer tbl.Close()
			for i := 0; i < nkeys; i++ {
				if err := tbl.Put(key(i), bytes.Repeat([]byte{'v'}, 90)); err != nil {
					t.Fatal(err)
				}
			}
			// The chain as laid out: physical page and first key of every
			// position.
			var pages []uint32
			var firstKey [][]byte
			if err := tbl.walkChain(nil, 0, func(b *buffer.Buf) (bool, error) {
				pg := tbl.hdr.bucketToPage(0)
				if b.Addr.Ovfl {
					pg = tbl.hdr.oaddrToPage(oaddr(b.Addr.N))
				}
				pages = append(pages, pg)
				e, err := page(b.Page).entryAt(0)
				firstKey = append(firstKey, append([]byte(nil), e.key...))
				return false, err
			}); err != nil {
				t.Fatal(err)
			}
			if len(pages) <= faultPos {
				t.Fatalf("chain has %d pages, want more than %d", len(pages), faultPos)
			}
			if err := tbl.Delete(firstKey[roomPos]); err != nil {
				t.Fatal(err)
			}
			if pb, err := tbl.getBucketPage(nil, 0); err != nil || page(pb.Page).fltSaturatedBit() {
				t.Fatalf("primary filter unusable (err %v): the test would be vacuous", err)
			} else {
				tbl.pool.Put(pb)
			}
			if err := tbl.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := tbl.pool.InvalidateAll(); err != nil { // every page is a store read from here
				t.Fatal(err)
			}

			fs.Inject(pagefile.Fault{Op: pagefile.OpRead, After: 1, Err: errors.New("injected read fault"), Page: pages[faultPos]})
			werr := write(tbl)
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
			if seen < nkeys-1 {
				t.Errorf("Seq yielded %d keys, want at least %d", seen, nkeys-1)
			}
			if err := tbl.Check(); err != nil {
				t.Errorf("Check after the write returned %v: %v", werr, err)
			}
		})
	}
}
