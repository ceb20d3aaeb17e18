package core

// Per-bucket tag filter. Every slot page reserves a small region right
// after the 4-byte page header; on a primary bucket page it holds a
// compact summary of the bucket's whole chain, maintained incrementally
// by Put/Delete/splits/batch and rebuilt from pair data on recovery:
//
//	byte 4        count     — tag bytes in use
//	byte 5        flags     — fltSaturated, fltInexact
//	byte 6        chainLen  — overflow pages in the chain (saturates 255)
//	bytes 7..7+C  tags      — one byte per resident key (C = tagCapFor)
//
// Each tag byte packs a 2-bit position hint with 6 bits of the key's
// hash: hint<<6 | (h>>26)&0x3f, where hint = min(chainPos, 3) and
// chainPos 0 is the primary page. A Get consults the filter before
// touching the chain: no tag with matching hash bits means the key is
// definitely absent (zero chain-page reads); on a possible hit the
// hints say which chain positions can hold it, so non-matching overflow
// pages are skipped. False positives cost a wasted probe; false
// negatives are forbidden, so any anomaly degrades the filter toward
// "search everything":
//
//   - more resident keys than tag capacity sets fltSaturated: the
//     filter answers nothing until a rebuild shrinks the bucket's load
//     (adds and removes become no-ops; chainLen stays maintained).
//   - unlinking an overflow page shifts later positions, so it sets
//     fltInexact: membership answers (tag bits) stay exact, position
//     hints are ignored until a rebuild.
//   - a remove that cannot find its tag means the filter lost sync
//     with the pair data; it self-saturates rather than risk a miss.
//
// Overflow pages carry the region too (the slot codec is uniform) but
// leave it zeroed — which is exactly an empty filter, so zero-filled
// fresh pages and the split path's clear+initPage need no extra code.
const (
	fltCountOff = pageHdrSize
	fltFlagsOff = pageHdrSize + 1
	fltChainOff = pageHdrSize + 2
	fltTagsOff  = pageHdrSize + 3
	fltMetaSize = 3

	fltSaturated = 1 << 0 // tag set incomplete: filter answers nothing
	fltInexact   = 1 << 1 // position hints stale: membership only

	tagMask = 0x3f // low 6 bits of a tag byte hold hash bits

	// maxHint caps the position hint: hint 3 means "chain position 3 or
	// beyond", so pages past position 2 can never be skipped by hints.
	maxHint = 3
)

// tagCapFor returns the tag capacity for a page of n bytes: one eighth
// of the page, clamped to [8, 120]. At the default geometry (256-byte
// pages, fill factor ~8) the 32 tags cover a bucket several times over;
// saturation only happens on pathological skew, where the filter would
// not help anyway.
func tagCapFor(n int) int { return min(max(n/8, 8), 120) }

// slotBaseFor returns the offset of the first slot on a page of n bytes.
func slotBaseFor(n int) int { return pageHdrSize + fltMetaSize + tagCapFor(n) }

func (p page) slotBase() int { return slotBaseFor(len(p)) }

// filterTag6 extracts the 6 hash bits stored in a tag. The top of the
// hash is used because bucket routing consumes the low bits; high and
// low bits are nearly independent, keeping the false-positive rate near
// the ideal n/64 per probe.
func filterTag6(h uint32) byte { return byte(h>>26) & tagMask }

// filterTagByte packs hash bits and a chain-position hint into one tag.
func filterTagByte(h uint32, pos int) byte {
	if pos > maxHint {
		pos = maxHint
	}
	return byte(pos)<<6 | filterTag6(h)
}

func (p page) fltSaturatedBit() bool { return p[fltFlagsOff]&fltSaturated != 0 }
func (p page) fltInexactBit() bool   { return p[fltFlagsOff]&fltInexact != 0 }
func (p page) fltCount() int         { return int(p[fltCountOff]) }

// fltChainLen returns the recorded number of overflow pages chained
// after the primary, exact below 255. No lookup or chain walk consults
// it: it stays maintained because layout v5 carries it and Check, in
// this build and older ones, requires it exact. The filter-skip trace
// event reports it.
func (p page) fltChainLen() int { return int(p[fltChainOff]) }

func (p page) fltChainInc() {
	if p[fltChainOff] < 255 {
		p[fltChainOff]++
	}
}

func (p page) fltChainDec() {
	// Once saturated the true length is unknown; stay pinned high.
	if c := p[fltChainOff]; c > 0 && c < 255 {
		p[fltChainOff] = c - 1
	}
}

// setFltChainLen records the chain length directly (rebuild paths).
func (p page) setFltChainLen(n int) {
	if n > 255 {
		n = 255
	}
	p[fltChainOff] = byte(n)
}

// setFltInexact marks the position hints stale (an unlink renumbered
// chain positions); membership answers stay exact.
func (p page) setFltInexact() { p[fltFlagsOff] |= fltInexact }

// filterReset clears the filter to empty (no tags, no flags, chain
// length zero). Tag bytes beyond count are never read, so they need not
// be zeroed.
func (p page) filterReset() {
	p[fltCountOff] = 0
	p[fltFlagsOff] = 0
	p[fltChainOff] = 0
}

// filterAdd records a resident key with hash h at chain position pos.
func (p page) filterAdd(h uint32, pos int) {
	if p[fltFlagsOff]&fltSaturated != 0 {
		return
	}
	c := int(p[fltCountOff])
	if c >= p.tagCap() {
		p[fltFlagsOff] |= fltSaturated
		return
	}
	p[fltTagsOff+c] = filterTagByte(h, pos)
	p[fltCountOff] = byte(c + 1)
}

func (p page) tagCap() int { return tagCapFor(len(p)) }

// filterRemove drops the tag recorded for a key with hash h at chain
// position pos. If the exact tag is gone (hints already stale, or the
// filter lost sync) it falls back to removing any tag with the same
// hash bits — membership stays exact — and failing that, saturates: a
// filter that cannot account for its keys must not answer "absent".
func (p page) filterRemove(h uint32, pos int) {
	if p[fltFlagsOff]&fltSaturated != 0 {
		return
	}
	c := int(p[fltCountOff])
	tags := p[fltTagsOff : fltTagsOff+c]
	if p[fltFlagsOff]&fltInexact == 0 {
		want := filterTagByte(h, pos)
		for i, t := range tags {
			if t == want {
				tags[i] = tags[c-1]
				p[fltCountOff] = byte(c - 1)
				return
			}
		}
	}
	t6 := filterTag6(h)
	for i, t := range tags {
		if t&tagMask == t6 {
			tags[i] = tags[c-1]
			p[fltCountOff] = byte(c - 1)
			p[fltFlagsOff] |= fltInexact
			return
		}
	}
	p[fltFlagsOff] |= fltSaturated
}

// filterAnswers reports whether pg's filter may answer a read or a write:
// filters are on, none awaits Recover's rebuild, and the tag set is whole.
func (t *Table) filterAnswers(pg page) bool {
	return t.filtersOn && !t.needsRecovery && !pg.fltSaturatedBit()
}

// filterHints reports which chain positions may hold a key with hash h:
// bit i set means position i (0 = primary) must be searched, bit 3
// means some position >= 3 must be. Zero means the key is definitely
// absent. Membership (zero vs nonzero) is exact even when fltInexact is
// set; the per-position bits are only meaningful while hints are exact.
// The caller must check fltSaturatedBit first.
func (p page) filterHints(h uint32) uint8 {
	return tagHints(p[fltTagsOff:fltTagsOff+int(p[fltCountOff])], h)
}

// tagHints is filterHints over a bare tag slice (Check validates a
// snapshot of the region taken before the chain walk).
func tagHints(tags []byte, h uint32) uint8 {
	t6 := filterTag6(h)
	var m uint8
	for _, t := range tags {
		if t&tagMask == t6 {
			m |= 1 << (t >> 6)
		}
	}
	return m
}
