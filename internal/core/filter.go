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
// The filter is a membership set: each tag holds 6 bits of the key's
// hash, (h>>26)&0x3f. A Get consults it before touching the chain: no tag
// with matching bits means the key is definitely absent (zero chain-page
// reads), and a write takes the same answer as proof that the key has no
// copy to find. False positives cost a wasted walk; false negatives are
// forbidden, so any anomaly degrades the filter toward "search
// everything":
//
//   - more resident keys than tag capacity sets fltSaturated: the
//     filter answers nothing until a rebuild shrinks the bucket's load
//     (adds and removes become no-ops; chainLen stays maintained).
//   - a remove that cannot find its tag means the filter lost sync
//     with the pair data; it self-saturates rather than risk a miss.
//
// Older builds packed a 2-bit chain-position hint into the top of each
// tag and skipped the slot search of pages no hint named. Every
// comparison here masks with tagMask, so their files read by the low 6
// bits. Those builds trust the hints while fltInexact is clear, so this
// build sets fltInexact whenever it changes a primary's tags or shortens
// its chain; v5 defines that state as "membership only". Nothing here
// reads the bit: it is written for older readers alone.
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
	fltInexact   = 1 << 1 // membership only: written for older readers, read by none

	tagMask = 0x3f // low 6 bits of a tag byte hold hash bits
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

func (p page) fltSaturatedBit() bool { return p[fltFlagsOff]&fltSaturated != 0 }
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

// fltChainDec records an unlinked overflow page. The pages after it
// moved up one position, so an older reader's hints may name the wrong
// ones: the filter becomes membership only.
func (p page) fltChainDec() {
	p[fltFlagsOff] |= fltInexact
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

// filterReset clears the filter to empty (no tags, no flags, chain
// length zero). Tag bytes beyond count are never read, so they need not
// be zeroed.
func (p page) filterReset() {
	p[fltCountOff] = 0
	p[fltFlagsOff] = 0
	p[fltChainOff] = 0
}

// filterAdd records a resident key with hash h. Like every change to
// the tag set it sets fltInexact, for older readers.
func (p page) filterAdd(h uint32) {
	p[fltFlagsOff] |= fltInexact
	if p[fltFlagsOff]&fltSaturated != 0 {
		return
	}
	c := int(p[fltCountOff])
	if c >= p.tagCap() {
		p[fltFlagsOff] |= fltSaturated
		return
	}
	p[fltTagsOff+c] = filterTag6(h)
	p[fltCountOff] = byte(c + 1)
}

func (p page) tagCap() int { return tagCapFor(len(p)) }

// filterRemove drops one tag with the hash bits of a key with hash h.
// Keys that share those bits are interchangeable here, so any such tag
// will do. If there is none the filter lost sync with the pair data, and
// it saturates: a filter that cannot account for its keys must not
// answer "absent".
func (p page) filterRemove(h uint32) {
	p[fltFlagsOff] |= fltInexact
	if p[fltFlagsOff]&fltSaturated != 0 {
		return
	}
	c := int(p[fltCountOff])
	tags := p[fltTagsOff : fltTagsOff+c]
	if i := tagIndex(tags, h); i >= 0 {
		tags[i] = tags[c-1]
		p[fltCountOff] = byte(c - 1)
		return
	}
	p[fltFlagsOff] |= fltSaturated
}

// filterAnswers reports whether pg's filter may answer a read or a write:
// filters are on, none awaits Recover's rebuild, and the tag set is whole.
func (t *Table) filterAnswers(pg page) bool {
	return t.filtersOn && !t.needsRecovery && !pg.fltSaturatedBit()
}

// filterHas reports whether a key with hash h may be resident: false
// means definitely absent. The caller must check fltSaturatedBit first.
func (p page) filterHas(h uint32) bool {
	return tagIndex(p[fltTagsOff:fltTagsOff+int(p[fltCountOff])], h) >= 0
}

// tagIndex returns the index of a tag in tags holding h's hash bits, or
// -1 (Check searches a snapshot of the region taken before the chain
// walk).
func tagIndex(tags []byte, h uint32) int {
	t6 := filterTag6(h)
	for i, t := range tags {
		if t&tagMask == t6 {
			return i
		}
	}
	return -1
}
