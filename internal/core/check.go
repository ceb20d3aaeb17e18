package core

import (
	"fmt"
	"strings"
)

// Check walks the whole table verifying its structural invariants:
//
//   - every key hashes to the bucket whose chain holds it;
//   - chains are acyclic and every linked overflow page is marked
//     allocated in its split point's bitmap;
//   - big-pair chains are intact, marked allocated, and not shared;
//   - no overflow page is referenced twice;
//   - every allocated bitmap bit is accounted for by a chain page, a
//     big-pair page or the bitmap page itself (no leaked pages);
//   - the key count and pair fingerprint match the table's;
//   - every bucket's tag filter covers its chain: an unsaturated filter
//     must hold a matching tag for every resident key (a false negative
//     would make Get answer "absent" for a stored key), the tag count
//     must equal the bucket's key count, and the recorded chain length
//     must match the real one while below its saturation point;
//   - every ready search hint matches its page (hint.go).
//
// It runs recovery's certifying walk over the pool's pages: any repair
// that walk would plan is an error, and so is any difference between the
// bitmaps its claims rebuild and the table's. Check repairs nothing. It is
// exported for tests; Verify (dbcli verify) runs it on a clean file.
func (t *Table) Check() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkOpen(); err != nil {
		return err
	}
	// The walk names what Recover could not repair; a live table is
	// just corrupt.
	walkErr := func(err error) error {
		return fmt.Errorf("hash check: %s", strings.TrimPrefix(err.Error(), ErrUnrecoverable.Error()+": "))
	}
	r, err := t.newRecovery(false)
	if err != nil {
		return walkErr(err)
	}
	for b := uint32(0); b <= t.hdr.maxBucket; b++ {
		if err := r.walkBucket(b); err != nil {
			return walkErr(err)
		}
		if r.why != "" {
			return fmt.Errorf("hash check: %s", r.why)
		}
		if err := t.checkFilter(b, r.prim, r.novfl, r.hashes); err != nil {
			return err
		}
		if err := t.checkHints(b); err != nil {
			return err
		}
	}
	if r.count != t.nkeysA.Load() {
		return fmt.Errorf("hash check: %d keys found, header says %d", r.count, t.nkeysA.Load())
	}
	if r.sum != t.pairSumA.Load() {
		return fmt.Errorf("hash check: pair fingerprint %#x, header says %#x", r.sum, t.pairSumA.Load())
	}

	want, err := t.claimedBitmaps(r.claimed)
	if err != nil {
		return err
	}
	for s := uint32(0); s <= t.hdr.ovflPoint; s++ {
		have, err := t.bitmapFor(s)
		if err != nil {
			return err
		}
		if have == nil {
			continue
		}
		for pn := uint32(1); pn <= t.hdr.allocatedAt(s); pn++ {
			switch used, set := bitmapGet(want[s], pn-1), bitmapGet(have, pn-1); {
			case set && !used:
				return fmt.Errorf("hash check: overflow page %v allocated but unreferenced (leak)", makeOaddr(s, pn))
			case used && !set:
				return fmt.Errorf("hash check: overflow page %v referenced by %s but not allocated", makeOaddr(s, pn), r.claimed[makeOaddr(s, pn)])
			}
		}
	}
	return nil
}

// checkFilter validates the tag filter on bucket's primary against the
// walk's account of its chain: novfl overflow pages holding keys with the
// given hashes. A saturated filter answers nothing and is vacuously
// valid; fltChainLen is validated whenever it is below its saturation
// point (a value under 255 is maintained exactly).
func (t *Table) checkFilter(bucket uint32, prim page, novfl int, keys []uint32) error {
	if t.needsRecovery || prim == nil {
		return nil // torn filter bytes are rebuilt by Recover, not Check
	}
	if chainLen := prim.fltChainLen(); chainLen < 255 && chainLen != novfl {
		return fmt.Errorf("hash check: bucket %d filter records %d overflow pages, chain has %d",
			bucket, chainLen, novfl)
	}
	if prim.fltSaturatedBit() {
		return nil
	}
	tags := prim[fltTagsOff : fltTagsOff+prim.fltCount()]
	if len(tags) != len(keys) {
		return fmt.Errorf("hash check: bucket %d filter holds %d tags for %d keys",
			bucket, len(tags), len(keys))
	}
	for _, h := range keys {
		if tagIndex(tags, h) < 0 {
			return fmt.Errorf("hash check: bucket %d filter has no tag for key hash %#x (false negative)",
				bucket, h)
		}
	}
	return nil
}
