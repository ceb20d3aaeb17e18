package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"unixhash/internal/buffer"
)

func TestCheckAfterWorkloads(t *testing.T) {
	cases := []struct {
		name string
		opts *Options
	}{
		{"default", nil},
		{"tiny-pages", &Options{Bsize: 64, Ffactor: 2}},
		{"overflow-heavy", &Options{Bsize: 128, Ffactor: 64, ControlledOnly: true}},
		{"presized", &Options{Nelem: 5000}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tbl := mustOpen(t, "", c.opts)
			defer tbl.Close()
			rng := rand.New(rand.NewSource(5))
			for op := 0; op < 4000; op++ {
				k := []byte(fmt.Sprintf("k%04d", rng.Intn(900)))
				switch rng.Intn(4) {
				case 0, 1:
					if err := tbl.Put(k, val(op)); err != nil {
						t.Fatal(err)
					}
				case 2:
					_ = tbl.Delete(k)
				case 3:
					if rng.Intn(5) == 0 {
						if err := tbl.Put(k, bytes.Repeat([]byte{1}, 2000)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if op%1000 == 999 {
					if err := tbl.Check(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			if err := tbl.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCheckAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chk.db")
	tbl := mustOpen(t, path, &Options{Bsize: 128, Ffactor: 8})
	for i := 0; i < 3000; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Put([]byte("big"), bytes.Repeat([]byte("B"), 9000))
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	tbl = mustOpen(t, path, nil)
	defer tbl.Close()
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDetectsWrongBucket(t *testing.T) {
	// Plant a key in the wrong bucket by writing a page directly.
	store := newMemTable(t)
	defer store.Close()
	if err := store.Check(); err != nil {
		t.Fatal(err)
	}

	// Find the primary page of bucket 0 and shove a key that belongs
	// elsewhere onto it.
	var wrong []byte
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("wrong%d", i))
		if store.calcBucket(store.hash(k)) != 0 {
			wrong = k
			break
		}
	}
	buf, err := store.getBucketPage(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	page(buf.Page).addRegular(wrong, []byte("x"))
	buf.Dirty.Store(true)
	store.pool.Put(buf)
	store.nkeysA.Add(1)

	if err := store.Check(); err == nil {
		t.Fatal("Check accepted a key in the wrong bucket")
	}
}

func TestCheckDetectsCountMismatch(t *testing.T) {
	tbl := newMemTable(t)
	defer tbl.Close()
	tbl.nkeysA.Add(5)
	if err := tbl.Check(); err == nil {
		t.Fatal("Check accepted a wrong key count")
	}
}

func TestCheckDetectsLeakedOverflowPage(t *testing.T) {
	tbl := newMemTable(t)
	defer tbl.Close()
	// Allocate an overflow page and reference it from nowhere.
	if _, err := tbl.allocOvfl(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err == nil {
		t.Fatal("Check accepted a leaked overflow page")
	}
}

// newMemTable builds a small populated in-memory table for corruption
// tests.
func newMemTable(t *testing.T) *Table {
	t.Helper()
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	for i := 0; i < 500; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestCheckDetectsPlanted plants, one per case, a break of each invariant
// Check's doc lists that the tests above do not reach, keeping every
// other invariant whole where the plant allows, and requires Check to
// fail.
func TestCheckDetectsPlanted(t *testing.T) {
	cases := []struct {
		name  string
		plant func(t *testing.T, tbl *Table)
	}{
		{"link-to-unallocated-page", func(t *testing.T, tbl *Table) {
			o := chainPages(t, tbl, chainedBucket(t, tbl, 0))[0]
			bm, err := tbl.bitmapFor(o.split())
			if err != nil {
				t.Fatal(err)
			}
			bitmapClear(bm, o.pagenum()-1)
		}},
		{"page-on-two-chains", func(t *testing.T, tbl *Table) {
			// One empty overflow page appended to two chains.
			o, err := tbl.allocOvfl()
			if err != nil {
				t.Fatal(err)
			}
			nb, err := tbl.pool.GetOwned(ovflBufAddr(o), uint32(o), true)
			if err != nil {
				t.Fatal(err)
			}
			clear(nb.Page)
			initPage(page(nb.Page))
			nb.Dirty.Store(true)
			tbl.pool.Put(nb)
			// Stored, so the pool shard of either chain finds it.
			if err := tbl.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			a := chainedBucket(t, tbl, 0)
			for _, b := range []uint32{a, chainedBucket(t, tbl, a+1)} {
				pages := chainPages(t, tbl, b)
				withPage(t, tbl, b, pages[len(pages)-1], func(pg page) {
					if err := pg.setOvflLink(o); err != nil {
						t.Fatal(err)
					}
				})
				withPage(t, tbl, b, 0, func(pg page) { pg.fltChainInc() })
			}
		}},
		{"big-chain-cut", func(t *testing.T, tbl *Table) {
			big := []byte("big-pair")
			if err := tbl.Put(big, bytes.Repeat([]byte{'v'}, 600)); err != nil {
				t.Fatal(err)
			}
			var ref oaddr
			withPage(t, tbl, tbl.calcBucket(tbl.hash(big)), 0, func(pg page) {
				pg.forEach(func(_ int, e entry) bool {
					if e.kind == entryBig {
						ref = e.ref
					}
					return ref == 0
				})
			})
			b, err := tbl.pool.GetOwned(ovflBufAddr(ref), uint32(ref), false)
			if err != nil {
				t.Fatal(err)
			}
			if le.Uint16(b.Page[bigNextOffset:]) == 0 {
				t.Fatal("the big pair's chain has one page")
			}
			le.PutUint16(b.Page[bigNextOffset:], 0)
			b.Dirty.Store(true)
			tbl.pool.Put(b)
		}},
		{"key-without-tag", func(t *testing.T, tbl *Table) {
			withPage(t, tbl, 0, 0, func(pg page) {
				tags := pg[fltTagsOff : fltTagsOff+pg.fltCount()]
				for v := byte(0); v <= tagMask; v++ {
					if bytes.IndexByte(tags, v) < 0 {
						tags[0] = v
						return
					}
				}
				t.Fatal("bucket 0 uses every tag value")
			})
		}},
		{"extra-tag", func(t *testing.T, tbl *Table) {
			withPage(t, tbl, 0, 0, func(pg page) {
				c := pg.fltCount()
				pg[fltTagsOff+c] = pg[fltTagsOff]
				pg[fltCountOff] = byte(c + 1)
			})
		}},
		{"chain-length", func(t *testing.T, tbl *Table) {
			withPage(t, tbl, chainedBucket(t, tbl, 0), 0, func(pg page) { pg.fltChainInc() })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 12, ControlledOnly: true})
			defer tbl.Close()
			for i := 0; i < 300; i++ {
				if err := tbl.Put(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.Check(); err != nil {
				t.Fatal(err)
			}
			c.plant(t, tbl)
			err := tbl.Check()
			if err == nil {
				t.Fatal("Check accepted the planted corruption")
			}
			t.Log(err)
		})
	}
}

// chainedBucket returns the first bucket from b on with an overflow page.
func chainedBucket(t *testing.T, tbl *Table, b uint32) uint32 {
	t.Helper()
	for ; b <= tbl.hdr.maxBucket; b++ {
		if len(chainPages(t, tbl, b)) > 0 {
			return b
		}
	}
	t.Fatal("no chained bucket")
	return 0
}

// chainPages lists bucket b's overflow pages in chain order.
func chainPages(t *testing.T, tbl *Table, b uint32) []oaddr {
	t.Helper()
	var pages []oaddr
	if err := tbl.walkChain(nil, b, false, func(buf *buffer.Buf) (bool, error) {
		if buf.Addr.Ovfl {
			pages = append(pages, oaddr(buf.Addr.N))
		}
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	return pages
}

// withPage edits page o of bucket b's chain (0: its primary) in the pool.
func withPage(t *testing.T, tbl *Table, b uint32, o oaddr, edit func(page)) {
	t.Helper()
	buf, err := tbl.getBucketPage(nil, b)
	if o != 0 && err == nil {
		tbl.pool.Put(buf)
		buf, err = tbl.pool.GetOwned(ovflBufAddr(o), b, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	edit(page(buf.Page))
	buf.Dirty.Store(true)
	tbl.pool.Put(buf)
}
