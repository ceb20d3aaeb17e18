package core

import (
	"fmt"
	"io"

	"unixhash/internal/buffer"
)

// Dump writes a human-readable description of the table's structure to
// w: header geometry, the spares array, per-bucket chain shapes and page
// fill, and overflow bitmap occupancy. With verbose set, every entry's
// key is listed. It is the engine behind dbcli dump (db.Dump).
func (t *Table) Dump(w io.Writer, verbose bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkOpen(); err != nil {
		return err
	}
	h := &t.hdr
	fmt.Fprintf(w, "hash table: bsize=%d ffactor=%d nkeys=%d\n", h.bsize, h.ffactor, h.nkeys)
	fmt.Fprintf(w, "  maxBucket=%d lowMask=%#x highMask=%#x ovflPoint=%d hdrPages=%d\n",
		h.maxBucket, h.lowMask, h.highMask, h.ovflPoint, h.hdrPages)
	if h.walLSN != 0 || t.log != nil || t.sharedLog {
		_, pending := t.Unsettled()
		fmt.Fprintf(w, "  wal: checkpoint lsn=%d applied=%d pending=%d\n",
			h.walLSN, t.appliedLSN.Load(), pending)
	}
	fmt.Fprintf(w, "  spares (cumulative):")
	for s := uint32(0); s <= h.ovflPoint; s++ {
		fmt.Fprintf(w, " %d:%d", s, h.spares[s])
	}
	fmt.Fprintln(w)

	// Bitmap occupancy.
	for s := uint32(0); s <= h.ovflPoint && s < maxSplits; s++ {
		if h.bitmaps[s] == 0 {
			continue
		}
		bm, err := t.bitmapFor(s)
		if err != nil {
			return err
		}
		used, limit := 0, h.allocatedAt(s)
		for pn := uint32(1); pn <= limit; pn++ {
			if bitmapGet(bm, pn-1) {
				used++
			}
		}
		fmt.Fprintf(w, "  split point %d: %d/%d overflow pages in use (bitmap at %v)\n",
			s, used, limit, oaddr(h.bitmaps[s]))
	}

	// Buckets.
	for b := uint32(0); b <= h.maxBucket; b++ {
		if err := t.dumpBucket(w, b, verbose); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) dumpBucket(w io.Writer, bucket uint32, verbose bool) error {
	first := true
	return t.walkChain(nil, bucket, func(buf *buffer.Buf) (bool, error) {
		pg := page(buf.Page)
		tag := fmt.Sprintf("ovfl %v", oaddr(buf.Addr.N))
		if !buf.Addr.Ovfl {
			tag = fmt.Sprintf("bucket %d", buf.Addr.N)
		}
		if first || buf.Addr.Ovfl {
			fmt.Fprintf(w, "  %-14s page=%-6d entries=%-4d free=%-5d link=%v\n",
				tag, t.mapPage(buf.Addr), pg.nentries(), pg.freeSpace(), pg.ovflLink())
		}
		first = false
		if verbose {
			return false, pg.forEach(func(i int, e entry) bool {
				switch e.kind {
				case entryRegular:
					fmt.Fprintf(w, "      [%d] %q (%d bytes data)\n", i, truncKey(e.key), len(e.data))
				case entryBig:
					k, d, err := t.readBig(e.ref)
					if err != nil {
						fmt.Fprintf(w, "      [%d] BIG @%v (unreadable: %v)\n", i, e.ref, err)
						return true
					}
					fmt.Fprintf(w, "      [%d] BIG %q (%d bytes data) chain@%v\n", i, truncKey(k), len(d), e.ref)
				}
				return true
			})
		}
		return false, nil
	})
}

func truncKey(k []byte) string {
	if len(k) > 32 {
		return string(k[:29]) + "..."
	}
	return string(k)
}

func (t *Table) mapPage(a buffer.Addr) uint32 {
	if a.Ovfl {
		return t.hdr.oaddrToPage(oaddr(a.N))
	}
	return t.hdr.bucketToPage(a.N)
}
