package core

import (
	"fmt"

	"unixhash/internal/buffer"
	"unixhash/internal/trace"
)

// Overflow page allocation — the buddy-in-waiting mechanism.
//
// Overflow pages are allocated between generations of primary pages: all
// pages at split point s live physically after the primary page of bucket
// 2^s - 1. New pages are only ever allocated at the current split point
// (hdr.ovflPoint); when a bucket later splits, pages whose contents were
// redistributed are reclaimed by clearing their bit, and reuse scans the
// bitmaps before growing the file. Each split point's use bitmap lives on
// that split point's first overflow page (addresses kept in hdr.bitmaps),
// exactly as the paper prescribes: "Overflow page use information is
// recorded in bitmaps which are themselves stored on overflow pages."

// bitmapHdrSize reserves the magic word at the front of a bitmap page.
const bitmapHdrSize = 4

// maxPagesPerSplit bounds page numbers at one split point: the 11-bit
// page-number field, or the bitmap capacity of one page, whichever is
// smaller.
func (t *Table) maxPagesPerSplit() uint32 {
	byBits := (t.hdr.bsize - bitmapHdrSize) * 8
	if byBits > maxSplitPage {
		return maxSplitPage
	}
	return byBits
}

// bitmapFor returns the in-core bitmap for split point s, loading it from
// the store if needed. Returns nil if split point s has no bitmap page.
func (t *Table) bitmapFor(s uint32) ([]byte, error) {
	if t.hdr.bitmaps[s] == 0 {
		return nil, nil
	}
	if t.bitmapBuf[s] != nil {
		return t.bitmapBuf[s], nil
	}
	buf := make([]byte, t.hdr.bsize)
	pageno := t.hdr.oaddrToPage(oaddr(t.hdr.bitmaps[s]))
	if err := t.store.ReadPage(pageno, buf); err != nil {
		return nil, fmt.Errorf("hash: load bitmap for split point %d: %w", s, err)
	}
	if !isBitmapPage(buf) {
		return nil, fmt.Errorf("%w: page %d is not a bitmap page", ErrCorrupt, pageno)
	}
	t.bitmapBuf[s] = buf
	// Count reclaimed (clear) bits so allocation can skip empty bitmaps.
	free := 0
	for pn := uint32(1); pn <= t.hdr.allocatedAt(s); pn++ {
		if !bitmapGet(buf, pn-1) {
			free++
		}
	}
	t.freeCount[s] = free
	return buf, nil
}

// createBitmap allocates split point s's first overflow page as its use
// bitmap. The bitmap's own bit (page number 1, bit 0) is set.
func (t *Table) createBitmap(s uint32) error {
	if t.hdr.bitmaps[s] != 0 {
		return fmt.Errorf("%w: duplicate bitmap for split point %d", ErrCorrupt, s)
	}
	if t.hdr.allocatedAt(s) != 0 {
		return fmt.Errorf("%w: split point %d has pages but no bitmap", ErrCorrupt, s)
	}
	buf := make([]byte, t.hdr.bsize)
	le.PutUint16(buf[0:2], bitmapMagic)
	buf[bitmapHdrSize] |= 1 // bit 0: the bitmap page itself
	t.hdr.spares[s]++
	t.hdr.bitmaps[s] = uint16(makeOaddr(s, 1))
	t.bitmapBuf[s] = buf
	t.bitmapDirty[s] = true
	t.dirtyHdr.Store(true)
	return nil
}

func bitmapGet(bm []byte, bit uint32) bool {
	return bm[bitmapHdrSize+bit/8]&(1<<(bit%8)) != 0
}

func bitmapSet(bm []byte, bit uint32) {
	bm[bitmapHdrSize+bit/8] |= 1 << (bit % 8)
}

func bitmapClear(bm []byte, bit uint32) {
	bm[bitmapHdrSize+bit/8] &^= 1 << (bit % 8)
}

// allocOvfl returns the address of a usable overflow page: a reclaimed
// page if one exists, otherwise a fresh page at the current split point
// (advancing the split point early if its page-number space is full).
// The caller is responsible for initializing the page contents.
//
// The allocator state (bitmaps, spares, lastFreed, ovflPoint) is guarded
// by ovflMu, taken here — callers may hold bucket latches but must not
// hold ovflMu. Crucially, allocation only ever mutates spares at or past
// the current split point, so concurrent readers mapping bucket pages
// through frozen lower spares entries (see header.bucketToPage) are
// unaffected.
func (t *Table) allocOvfl() (oaddr, error) {
	t.ovflMu.Lock()
	defer t.ovflMu.Unlock()
	// Fast path: the most recently freed page.
	if lf := oaddr(t.hdr.lastFreed); lf != 0 {
		s, pn := lf.split(), lf.pagenum()
		if s < maxSplits && pn >= 1 && pn <= t.hdr.allocatedAt(s) {
			if bm, err := t.bitmapFor(s); err != nil {
				return 0, err
			} else if bm != nil && !bitmapGet(bm, pn-1) {
				bitmapSet(bm, pn-1)
				t.bitmapDirty[s] = true
				t.freeCount[s]--
				t.hdr.lastFreed = 0
				t.dirtyHdr.Store(true)
				t.m.ovflReuses.Inc()
				t.tr.Emit(trace.EvOvflReuse, uint64(s), uint64(pn), uint64(lf), 0)
				return lf, nil
			}
		}
		t.hdr.lastFreed = 0
	}

	// Scan every split point's bitmap for a reclaimed page, newest first
	// (locality: recent split points are nearest the working set).
	for si := int(t.hdr.ovflPoint); si >= 0; si-- {
		s := uint32(si)
		if t.hdr.bitmaps[s] == 0 {
			continue
		}
		bm, err := t.bitmapFor(s)
		if err != nil {
			return 0, err
		}
		if t.freeCount[s] == 0 {
			continue
		}
		limit := t.hdr.allocatedAt(s)
		for pn := uint32(1); pn <= limit; pn++ {
			if !bitmapGet(bm, pn-1) {
				bitmapSet(bm, pn-1)
				t.bitmapDirty[s] = true
				t.freeCount[s]--
				t.m.ovflReuses.Inc()
				t.tr.Emit(trace.EvOvflReuse, uint64(s), uint64(pn), uint64(makeOaddr(s, pn)), 0)
				return makeOaddr(s, pn), nil
			}
		}
	}

	// Allocate fresh at the current split point, advancing past full
	// split points (carrying the cumulative spares count forward).
	s := t.hdr.ovflPoint
	for {
		if t.hdr.bitmaps[s] == 0 {
			if err := t.createBitmap(s); err != nil {
				return 0, err
			}
		}
		cnt := t.hdr.allocatedAt(s)
		if cnt < t.maxPagesPerSplit() {
			pn := cnt + 1
			t.hdr.spares[s]++
			bm, err := t.bitmapFor(s)
			if err != nil {
				return 0, err
			}
			bitmapSet(bm, pn-1)
			t.bitmapDirty[s] = true
			t.dirtyHdr.Store(true)
			t.m.ovflAllocs.Inc()
			t.tr.Emit(trace.EvOvflAlloc, uint64(s), uint64(pn), uint64(makeOaddr(s, pn)), 0)
			return makeOaddr(s, pn), nil
		}
		if s+1 >= maxSplits {
			return 0, ErrTooManyPages
		}
		s++
		t.hdr.spares[s] = t.hdr.spares[s-1]
		t.hdr.ovflPoint = s
		t.dirtyHdr.Store(true)
	}
}

// freeOvfl reclaims an overflow page: its bit is cleared so a later
// allocation can reuse it, and any resident buffer is discarded.
// Like allocOvfl, it takes ovflMu itself.
func (t *Table) freeOvfl(o oaddr) error {
	t.ovflMu.Lock()
	defer t.ovflMu.Unlock()
	s, pn := o.split(), o.pagenum()
	if s >= maxSplits || pn == 0 || pn > t.hdr.allocatedAt(s) {
		return fmt.Errorf("%w: free of invalid overflow page %v", ErrCorrupt, o)
	}
	if uint16(o) == t.hdr.bitmaps[s] {
		return fmt.Errorf("%w: free of bitmap page %v", ErrCorrupt, o)
	}
	bm, err := t.bitmapFor(s)
	if err != nil {
		return err
	}
	if bm == nil || !bitmapGet(bm, pn-1) {
		return fmt.Errorf("%w: double free of overflow page %v", ErrCorrupt, o)
	}
	bitmapClear(bm, pn-1)
	t.bitmapDirty[s] = true
	t.freeCount[s]++
	t.hdr.lastFreed = uint32(o)
	t.dirtyHdr.Store(true)
	t.m.ovflFrees.Inc()
	t.tr.Emit(trace.EvOvflFree, uint64(s), uint64(pn), uint64(o), 0)
	t.pool.Discard(buffer.Addr{N: uint32(o), Ovfl: true})
	return nil
}

// flushBitmaps writes dirty bitmap pages straight to the store (bitmap
// pages are owned by the table, not the buffer pool).
func (t *Table) flushBitmaps() error {
	for s := range t.bitmapBuf {
		if !t.bitmapDirty[s] || t.bitmapBuf[s] == nil {
			continue
		}
		pageno := t.hdr.oaddrToPage(oaddr(t.hdr.bitmaps[s]))
		if err := t.store.WritePage(pageno, t.bitmapBuf[s]); err != nil {
			return err
		}
		t.bitmapDirty[s] = false
	}
	return nil
}

// allocatedPages counts the allocator's bitmap pages and the overflow
// pages its bitmaps mark in use, chain and big-pair pages alike. It
// takes ovflMu, which is all it needs: the bitmaps, the spares and the
// bitmap cache change only under ovflMu or the exclusive table lock.
func (t *Table) allocatedPages() (bitmaps, inUse int, err error) {
	t.ovflMu.Lock()
	defer t.ovflMu.Unlock()
	for si := uint32(0); si < maxSplits; si++ {
		bm, err := t.bitmapFor(si)
		if err != nil {
			return 0, 0, err
		}
		if bm == nil {
			continue
		}
		bitmaps++
		for pn := uint32(1); pn <= t.hdr.allocatedAt(si); pn++ {
			if bitmapGet(bm, pn-1) && uint16(makeOaddr(si, pn)) != t.hdr.bitmaps[si] {
				inUse++
			}
		}
	}
	return bitmaps, inUse, nil
}
