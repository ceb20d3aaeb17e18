package core

import (
	"bytes"
	"fmt"

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
		b.Dirty.Store(true)
		t.pool.Put(b)
	}
	t.tr.Emit(trace.EvBigPairWrite, uint64(len(addrs)), uint64(len(key)), uint64(len(data)), uint64(addrs[0]))
	return addrs[0], nil
}

// readBigChainPage fetches one chain page into buf (a page-sized scratch
// buffer owned by the caller) and returns (payload view, next address).
func (t *Table) readBigChainPage(o oaddr, buf []byte) ([]byte, oaddr, error) {
	b, err := t.pool.GetOwned(ovflBufAddr(o), uint32(o), false)
	if err != nil {
		return nil, 0, fmt.Errorf("hash: big pair chain page %v: %w", o, err)
	}
	copy(buf, b.Page)
	t.pool.Put(b)
	if !isBigPage(buf) {
		return nil, 0, fmt.Errorf("%w: page %v is not a big-pair page", ErrCorrupt, o)
	}
	next := oaddr(le.Uint16(buf[bigNextOffset:]))
	return buf[bigHdrSize:], next, nil
}

// readBig materializes the whole pair stored on the chain at o.
func (t *Table) readBig(o oaddr) (key, data []byte, err error) {
	buf := t.getScratch()
	defer t.putScratch(buf)
	payload, next, err := t.readBigChainPage(o, buf)
	if err != nil {
		return nil, nil, err
	}
	klen := int(le.Uint32(payload[0:]))
	dlen := int(le.Uint32(payload[4:]))
	out := make([]byte, 0, klen+dlen)
	out = append(out, payload[bigLenPrefix:]...)
	for len(out) < klen+dlen {
		if next == 0 {
			return nil, nil, fmt.Errorf("%w: big-pair chain truncated (%d of %d bytes)", ErrCorrupt, len(out), klen+dlen)
		}
		payload, next, err = t.readBigChainPage(next, buf)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, payload...)
	}
	out = out[:klen+dlen]
	return out[:klen:klen], out[klen:], nil
}

// readBigData appends just the data bytes of the chain at o to dst,
// skipping the key — the GetBuf path, which avoids materializing the key
// a second time after bigKeyEquals has already matched it.
func (t *Table) readBigData(o oaddr, dst []byte) ([]byte, error) {
	buf := t.getScratch()
	defer t.putScratch(buf)
	payload, next, err := t.readBigChainPage(o, buf)
	if err != nil {
		return nil, err
	}
	klen := int(le.Uint32(payload[0:]))
	dlen := int(le.Uint32(payload[4:]))
	if cap(dst)-len(dst) < dlen {
		grown := make([]byte, len(dst), len(dst)+dlen)
		copy(grown, dst)
		dst = grown
	}
	skip := klen // key bytes still to skip before data starts
	chunk := payload[bigLenPrefix:]
	need := dlen
	for {
		if skip > 0 {
			n := min(skip, len(chunk))
			chunk = chunk[n:]
			skip -= n
		}
		if skip == 0 && len(chunk) > 0 {
			n := min(need, len(chunk))
			dst = append(dst, chunk[:n]...)
			need -= n
			if need == 0 {
				return dst, nil
			}
		}
		if next == 0 {
			return nil, fmt.Errorf("%w: big-pair chain truncated (%d data bytes missing)", ErrCorrupt, need)
		}
		chunk, next, err = t.readBigChainPage(next, buf)
		if err != nil {
			return nil, err
		}
	}
}

// bigKeyEquals streams the chain's key bytes, comparing against key
// without materializing the data.
func (t *Table) bigKeyEquals(o oaddr, key []byte) (bool, error) {
	buf := t.getScratch()
	defer t.putScratch(buf)
	payload, next, err := t.readBigChainPage(o, buf)
	if err != nil {
		return false, err
	}
	klen := int(le.Uint32(payload[0:]))
	if klen != len(key) {
		return false, nil
	}
	rest := key
	chunk := payload[bigLenPrefix:]
	for {
		n := len(chunk)
		if n > len(rest) {
			n = len(rest)
		}
		if !bytes.Equal(chunk[:n], rest[:n]) {
			return false, nil
		}
		rest = rest[n:]
		if len(rest) == 0 {
			return true, nil
		}
		if next == 0 {
			return false, fmt.Errorf("%w: big-pair chain truncated during key compare", ErrCorrupt)
		}
		chunk, next, err = t.readBigChainPage(next, buf)
		if err != nil {
			return false, err
		}
	}
}

// bigKey materializes just the key of the chain at o (used when splitting
// a bucket, where the key must be rehashed).
func (t *Table) bigKey(o oaddr) ([]byte, error) {
	buf := t.getScratch()
	defer t.putScratch(buf)
	payload, next, err := t.readBigChainPage(o, buf)
	if err != nil {
		return nil, err
	}
	klen := int(le.Uint32(payload[0:]))
	key := make([]byte, 0, klen)
	chunk := payload[bigLenPrefix:]
	for {
		n := len(chunk)
		if n > klen-len(key) {
			n = klen - len(key)
		}
		key = append(key, chunk[:n]...)
		if len(key) == klen {
			return key, nil
		}
		if next == 0 {
			return nil, fmt.Errorf("%w: big-pair chain truncated during key read", ErrCorrupt)
		}
		chunk, next, err = t.readBigChainPage(next, buf)
		if err != nil {
			return nil, err
		}
	}
}

// freeBigChain reclaims every page of the chain starting at o.
func (t *Table) freeBigChain(o oaddr) error {
	buf := t.getScratch()
	defer t.putScratch(buf)
	for o != 0 {
		_, next, err := t.readBigChainPage(o, buf)
		if err != nil {
			return err
		}
		if err := t.freeOvfl(o); err != nil {
			return err
		}
		o = next
	}
	return nil
}
