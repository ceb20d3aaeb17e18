package core

import (
	"bytes"
	"fmt"
	"slices"

	"unixhash/internal/trace"
)

// Big key/data pairs. A pair whose key and data cannot fit on a single
// bucket page is stored on a dedicated chain of overflow pages — the same
// pages, allocated by the same buddy-in-waiting mechanism, that handle
// bucket overflow, so one mechanism serves both purposes as the paper
// prescribes. The bucket page holds only a two-slot reference
// [markBig, chain-start].
//
// Chain page layout:
//
//	bytes 0..1  uint16 bigMagic
//	bytes 2..3  uint16 next overflow address (0 on the last page)
//	bytes 4..   payload
//
// The first page's payload begins with uint32 key length and uint32 data
// length, followed by the key bytes and then the data bytes, streaming
// across the chain. Chain pages move through the buffer pool like every
// other data page: a chain write leaves dirty buffers that reach the
// store only at the next sync. Writing chains straight to the store
// (the original design) broke crash recovery — a chain that reused a
// page freed since the last sync would overwrite, before any checkpoint,
// a page the last-synced state still contained, so the recovery gate's
// fingerprint walk no longer reproduced the synced state and a WAL
// replay had nothing sound to replay onto. Chain reads borrow a
// page-sized scratch copy per call (t.getScratch), so concurrent
// readers never share a buffer.
const (
	bigHdrSize     = 4
	bigLenPrefix   = 8 // uint32 klen + uint32 dlen on the first page
	bigNextOffset  = 2
	bigMagicOffset = 0
)

// bigPayload is the payload capacity of one chain page.
func (t *Table) bigPayload() int { return int(t.hdr.bsize) - bigHdrSize }

// isBig reports whether a pair must be stored on a big-pair chain: a
// regular pair needs two slots, its bytes, and the link reserve on an
// otherwise empty page (whose slot array starts after the filter region).
func (t *Table) isBig(klen, dlen int) bool {
	return 2*slotSize+klen+dlen > int(t.hdr.bsize)-slotBaseFor(int(t.hdr.bsize))-linkReserve
}

// putBigPair writes key and data to a fresh chain and returns its start
// address. The pair is streamed into the chain's pool buffers segment by
// segment — length prefix, key, data — so no contiguous payload copy of
// the pair is ever materialized (for multi-megabyte pairs that copy
// doubled the insert's memory traffic; see TestPutAllocs).
func (t *Table) putBigPair(key, data []byte) (oaddr, error) {
	var prefix [bigLenPrefix]byte
	le.PutUint32(prefix[0:], uint32(len(key)))
	le.PutUint32(prefix[4:], uint32(len(data)))
	total := bigLenPrefix + len(key) + len(data)

	cap_ := t.bigPayload()
	npages := (total + cap_ - 1) / cap_
	var addrsArr [16]oaddr
	addrs := addrsArr[:0]
	if npages > len(addrsArr) {
		addrs = make([]oaddr, 0, npages)
	}
	for i := 0; i < npages; i++ {
		o, err := t.allocOvfl()
		if err != nil {
			// Roll back pages already claimed.
			for _, a := range addrs {
				_ = t.freeOvfl(a)
			}
			return 0, err
		}
		addrs = append(addrs, o)
	}
	segs := [3][]byte{prefix[:], key, data}
	seg, segOff := 0, 0
	for i, o := range addrs {
		b, err := t.pool.GetOwned(ovflBufAddr(o), uint32(o), true)
		if err != nil {
			for _, a := range addrs {
				_ = t.freeOvfl(a)
			}
			return 0, err
		}
		clear(b.Page)
		le.PutUint16(b.Page[bigMagicOffset:], bigMagic)
		next := oaddr(0)
		if i+1 < npages {
			next = addrs[i+1]
		}
		le.PutUint16(b.Page[bigNextOffset:], uint16(next))
		out := b.Page[bigHdrSize:]
		for len(out) > 0 && seg < len(segs) {
			n := copy(out, segs[seg][segOff:])
			out = out[n:]
			segOff += n
			if segOff == len(segs[seg]) {
				seg, segOff = seg+1, 0
			}
		}
		b.MarkDirty()
		t.pool.Put(b)
	}
	t.tr.Emit(trace.EvBigPairWrite, uint64(len(addrs)), uint64(len(key)), uint64(len(data)), uint64(addrs[0]))
	return addrs[0], nil
}

// bigPart names the payload bytes a chain read streams: the key, the
// data, or the whole pair. The zero bigPart streams none.
type bigPart uint8

const (
	bigKeyPart bigPart = iota + 1
	bigDataPart
	bigPairPart
)

// chainRead is one read of a big-pair chain.
type chainRead struct {
	store bool    // read from the store (recovery), not the pool
	part  bigPart // the payload bytes fn receives
	// sized, if set, sees the lengths before any byte is streamed; false
	// stops the read.
	sized func(klen, dlen int) bool
	// visit, if set, sees each page's address before the page is read,
	// and makes the read go on to the chain's last page.
	visit func(o oaddr) error
	fn    func(b []byte) bool // the range in order; false stops the read
}

// readChain is the one loop that follows a big-pair chain. It reads the
// chain at o page by page into a scratch copy, parses the length prefix
// on the first page, and streams the bytes of c.part to c.fn; a range of
// zero length is done as soon as the lengths are known. A chain that is
// not big-pair pages throughout, or that ends before its lengths do, is
// ErrCorrupt.
func (t *Table) readChain(o oaddr, c *chainRead) (klen, dlen int, err error) {
	sp := t.getScratch()
	defer t.putScratch(sp)
	buf := *sp
	from, to := 0, 0 // the range, as payload offsets past the prefix
	for pos, hops := 0, 0; ; hops++ {
		if hops > 1<<16 {
			return 0, 0, fmt.Errorf("%w: big-pair chain exceeds 65536 pages (cycle?)", ErrCorrupt)
		}
		if c.visit != nil {
			if err := c.visit(o); err != nil {
				return 0, 0, err
			}
		}
		if err := t.readPage(c.store, ovflBufAddr(o), uint32(o), buf); err != nil {
			return 0, 0, fmt.Errorf("hash: big pair chain page %v: %w", o, err)
		}
		if !isBigPage(buf) {
			return 0, 0, fmt.Errorf("%w: page %v is not a big-pair page", ErrCorrupt, o)
		}
		chunk := buf[bigHdrSize:]
		if hops == 0 {
			klen, dlen = int(le.Uint32(chunk[0:])), int(le.Uint32(chunk[4:]))
			if klen == 0 {
				return 0, 0, fmt.Errorf("%w: big pair at %v has an empty key", ErrCorrupt, o)
			}
			if c.sized != nil && !c.sized(klen, dlen) {
				return klen, dlen, nil
			}
			switch c.part {
			case bigKeyPart:
				to = klen
			case bigDataPart:
				from, to = klen, klen+dlen
			case bigPairPart:
				to = klen + dlen
			}
			chunk = chunk[bigLenPrefix:]
		}
		if lo, hi := max(from, pos), min(to, pos+len(chunk)); lo < hi && !c.fn(chunk[lo-pos:hi-pos]) {
			return klen, dlen, nil
		}
		pos += len(chunk)
		next := oaddr(le.Uint16(buf[bigNextOffset:]))
		if next == 0 || pos >= to && c.visit == nil {
			if pos < to {
				return 0, 0, fmt.Errorf("%w: big-pair chain truncated (%d of %d bytes)", ErrCorrupt, max(pos, from)-from, to-from)
			}
			return klen, dlen, nil
		}
		o = next
	}
}

// readBig materializes the whole pair stored on the chain at o.
func (t *Table) readBig(o oaddr) (key, data []byte, err error) {
	var out []byte
	klen, _, err := t.readChain(o, &chainRead{part: bigPairPart,
		sized: func(k, d int) bool { out = make([]byte, 0, k+d); return true },
		fn:    func(b []byte) bool { out = append(out, b...); return true }})
	if err != nil {
		return nil, nil, err
	}
	return out[:klen:klen], out[klen:], nil
}

// readBigData appends just the data bytes of the chain at o to dst,
// skipping the key — the GetBuf path, which avoids materializing the key
// a second time after bigKeyEquals has already matched it.
func (t *Table) readBigData(o oaddr, dst []byte) ([]byte, error) {
	_, _, err := t.readChain(o, &chainRead{part: bigDataPart,
		sized: func(_, d int) bool { dst = slices.Grow(dst, d); return true },
		fn:    func(b []byte) bool { dst = append(dst, b...); return true }})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// bigKeyEquals streams the chain's key bytes, comparing against key
// without materializing the data.
func (t *Table) bigKeyEquals(o oaddr, key []byte) (bool, error) {
	rest, eq := key, false
	_, _, err := t.readChain(o, &chainRead{part: bigKeyPart,
		sized: func(k, _ int) bool { eq = k == len(key); return eq },
		fn: func(b []byte) bool {
			eq = bytes.Equal(b, rest[:len(b)])
			rest = rest[len(b):]
			return eq
		}})
	return eq && err == nil, err
}

// bigKey materializes just the key of the chain at o (used when splitting
// a bucket, where the key must be rehashed).
func (t *Table) bigKey(o oaddr) ([]byte, error) {
	var key []byte
	_, _, err := t.readChain(o, &chainRead{part: bigKeyPart,
		sized: func(k, _ int) bool { key = make([]byte, 0, k); return true },
		fn:    func(b []byte) bool { key = append(key, b...); return true }})
	if err != nil {
		return nil, err
	}
	return key, nil
}

// freeBigChain reclaims every page of the chain starting at o, once the
// whole chain has been read.
func (t *Table) freeBigChain(o oaddr) error {
	var pagesArr [16]oaddr
	pages := pagesArr[:0]
	if _, _, err := t.readChain(o, &chainRead{
		visit: func(p oaddr) error { pages = append(pages, p); return nil }}); err != nil {
		return err
	}
	for _, o := range pages {
		if err := t.freeOvfl(o); err != nil {
			return err
		}
	}
	return nil
}
