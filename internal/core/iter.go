package core

import (
	"errors"
	"fmt"

	"unixhash/internal/buffer"
	"unixhash/internal/pagefile"
)

// Iterator walks every key/data pair in the table, bucket by bucket and
// page by page — the hash package's sequential retrieval, which (unlike
// ndbm's) returns both the key and the data in one call.
//
// The iterator addresses pages logically and refetches them through the
// buffer pool on each advance, so it holds no pins between calls and an
// arbitrarily large table can be scanned with a small pool. Each Next
// takes the table's shared lock, so scans run in parallel with Gets and
// with other scans. Mutating the table during a scan is permitted but the
// scan may then skip or repeat entries, as with the original package; the
// iterator itself never corrupts the table. An Iterator value is not
// itself safe for use from multiple goroutines; give each its own.
type Iterator struct {
	t        *Table
	bucket   uint32
	o        oaddr // current page within the chain; 0 = primary page
	idx      int   // next entry index on the current page
	nextLink oaddr // chain successor recorded by the last page fetch
	key      []byte
	val      []byte
	err      error
	done     bool
}

// Iter returns an iterator positioned before the first pair.
func (t *Table) Iter() *Iterator {
	return &Iterator{t: t}
}

// Next advances to the next pair, reporting false at the end of the table
// or on error (check Err).
func (it *Iterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	it.t.mu.RLock()
	defer it.t.mu.RUnlock()
	if err := it.t.checkOpen(); err != nil {
		it.err = err
		return false
	}
	for {
		// Latch the bucket whose chain the cursor is on: a split that
		// involves it holds the stripe until it is done, so the page walk
		// never observes a chain mid-redistribution.
		it.t.stripeFor(it.bucket).RLock()
		ok, err := it.nextOnPage()
		it.t.stripeFor(it.bucket).RUnlock()
		if err != nil {
			it.err = err
			return false
		}
		if ok {
			return true
		}
		if !it.advancePage() {
			it.done = true
			return false
		}
	}
}

// nextOnPage fetches the current page and materializes entry idx if it
// exists.
func (it *Iterator) nextOnPage() (bool, error) {
	t := it.t
	var buf *buffer.Buf
	var err error
	if it.o == 0 {
		buf, err = t.pool.Get(t.bucketAddr(it.bucket), nil, true)
	} else {
		// An unlinked overflow fetch: name the owning bucket so the page
		// lands in its chain's shard.
		buf, err = t.pool.GetOwned(ovflBufAddr(it.o), it.bucket, false)
	}
	if err != nil {
		// A never-written primary page of a pre-sized table is empty. An
		// overflow page that is gone was unlinked or split away under the
		// cursor between two Next calls: the rest of that chain is
		// skipped, as concurrent mutation is documented to allow.
		if errors.Is(err, pagefile.ErrNotAllocated) {
			return false, nil
		}
		return false, err
	}
	defer t.pool.Put(buf)
	pg := page(buf.Page)

	// First touch of a bucket's primary: prefetch its overflow chain in
	// one vectored read, since the scan is about to walk all of it.
	if it.o == 0 && it.idx == 0 {
		t.prefetchChain(buf, pg, nil)
	}

	e, n, err := entryAtWithCount(pg, it.idx)
	if err != nil {
		return false, err
	}
	it.nextLink = pg.ovflLink()
	if it.idx >= n {
		return false, nil
	}
	it.idx++
	switch e.kind {
	case entryRegular:
		it.key = append(it.key[:0], e.key...)
		it.val = append(it.val[:0], e.data...)
	case entryBig:
		k, v, err := t.readBig(e.ref)
		if err != nil {
			return false, err
		}
		it.key = append(it.key[:0], k...)
		it.val = append(it.val[:0], v...)
	default:
		return false, fmt.Errorf("%w: unknown entry kind", ErrCorrupt)
	}
	return true, nil
}

// advancePage moves the cursor to the next page in scan order: the chain
// successor recorded by the last page fetch, else the next bucket's
// primary page. It reports false when the table is exhausted.
func (it *Iterator) advancePage() bool {
	it.idx = 0
	if it.nextLink != 0 {
		it.o = it.nextLink
		it.nextLink = 0
		return true
	}
	it.o = 0
	if it.bucket >= it.t.geo.Load() {
		return false
	}
	it.bucket++
	return true
}

// entryAtWithCount returns entry i and the total entry count in one walk.
func entryAtWithCount(pg page, i int) (entry, int, error) {
	var out entry
	n := 0
	err := pg.forEach(func(j int, e entry) bool {
		if j == i {
			out = e
		}
		n = j + 1
		return true
	})
	return out, n, err
}

// Key returns the current pair's key. The slice is reused by Next; copy
// it to retain it.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current pair's data. The slice is reused by Next.
func (it *Iterator) Value() []byte { return it.val }

// Err reports the error that terminated the scan, if any.
func (it *Iterator) Err() error { return it.err }
