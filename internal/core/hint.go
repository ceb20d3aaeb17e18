package core

import (
	"bytes"
	"fmt"
	"slices"

	"unixhash/internal/buffer"
)

// Search hint states. A resident slot page keeps one fingerprint byte per
// entry, in slot order, in buffer.Buf.Hint (DESIGN §3, §7, §14).
const (
	hintNone  = iota // not searched since it was faulted in or changed
	hintSeen         // searched once: the next search builds the hint
	hintNo           // being built, or the page holds a big-pair ref
	hintReady        // Hint holds the page's fingerprints
)

// hintFP is the fingerprint of a key with hash h. A bucket's keys share
// their low hash bits, so a multiply mixes all 32 into the top byte.
func hintFP(h uint32) byte { return byte((h * 0x9E3779B1) >> 24) }

// buildHint appends the fingerprint of every entry on pg to dst[:0]; ok
// is false when pg holds a big-pair ref or does not decode.
func (t *Table) buildHint(pg page, dst []byte) (hint []byte, ok bool) {
	hint, ok = slices.Grow(dst[:0], pg.nslots()/2), true
	err := pg.forEach(func(_ int, e entry) bool {
		if ok = e.kind == entryRegular; ok {
			hint = append(hint, hintFP(t.hash(e.key)))
		}
		return ok
	})
	return hint, ok && err == nil
}

// hintedData returns key's data on buf's page if the page's hint finds
// it; if not, the caller scans the page, so a stale hint cannot change
// an answer. A page's first search of a residency marks it seen and the
// second builds its hint, one reader winning the CAS. Caller holds the
// bucket's stripe shared.
func (t *Table) hintedData(buf *buffer.Buf, h uint32, key []byte) ([]byte, bool) {
	switch buf.HintState.Load() {
	case hintNone:
		buf.HintState.CompareAndSwap(hintNone, hintSeen)
	case hintSeen:
		if buf.HintState.CompareAndSwap(hintSeen, hintNo) {
			var ok bool
			if buf.Hint, ok = t.buildHint(page(buf.Page), buf.Hint); ok {
				buf.HintState.Store(hintReady)
			}
		}
	}
	if buf.HintState.Load() != hintReady {
		return nil, false
	}
	for i, fp := -1, hintFP(h); ; {
		j := bytes.IndexByte(buf.Hint[i+1:], fp)
		if j < 0 {
			return nil, false
		}
		i += 1 + j
		if k, d, ok := page(buf.Page).pairAt(i); !ok || bytes.Equal(k, key) {
			return d, ok
		}
	}
}

// checkHints reports a ready hint on bucket's chain that differs from
// its page's keys: the page changed without MarkDirty.
func (t *Table) checkHints(bucket uint32) error {
	return t.walkChain(nil, bucket, false, func(buf *buffer.Buf) (bool, error) {
		if buf.HintState.Load() != hintReady {
			return false, nil
		}
		if want, ok := t.buildHint(page(buf.Page), nil); !ok || !bytes.Equal(want, buf.Hint) {
			return true, fmt.Errorf("hash check: %v search hint %x, its keys give %x", buf.Addr, buf.Hint, want)
		}
		return false, nil
	})
}
