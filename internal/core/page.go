package core

import (
	"encoding/binary"
	"fmt"
)

// Data-page layout. Every primary and (non-big, non-bitmap) overflow page
// is slot-structured, in the style of the 4.4BSD implementation:
//
//	bytes 0..1   uint16 nslots  — number of 16-bit slots in use
//	bytes 2..3   uint16 low     — offset of the lowest used data byte
//	bytes 4..    tag-filter region (see filter.go): count, flags,
//	             chain length, then one tag byte per resident key;
//	             live only on primary bucket pages, zero elsewhere
//	bytes sB..   slot array, two slots per entry (sB = slotBaseFor)
//	...free space...
//	bytes low..  key/data bytes, packed downward from the page end
//
// Entries occupy two consecutive slots each and come in three kinds,
// distinguished by the first slot's value (real offsets are < 32768, so
// values >= 0xFFF0 are available as markers):
//
//	regular pair   [keyOff, dataOff]   key and data bytes are on this page
//	big-pair ref   [markBig, oaddr]    pair lives on a chain of overflow
//	                                   pages starting at oaddr
//	overflow link  [markOvfl, oaddr]   rest of this bucket continues on
//	                                   the overflow page at oaddr; always
//	                                   the last entry if present
//
// For regular pairs the byte regions are delimited by the preceding
// regular pair: pair i's key occupies [keyOff, prevLow) and its data
// [dataOff, keyOff), where prevLow is the data offset of the previous
// regular pair on the page (or the page size for the first).
const (
	pageHdrSize = 4
	slotSize    = 2

	markOvfl = 0xFFFE // second slot holds the chain's next overflow address
	markBig  = 0xFFFD // second slot holds the big-pair chain's first page

	// bigMagic and bitmapMagic occupy the nslots field of raw (non-slot)
	// pages so every page in the file is self-describing.
	bigMagic    = 0xFFFF
	bitmapMagic = 0xFFFC
)

var le = binary.LittleEndian

// page wraps a page buffer with the slot codec. It is a view, not a copy.
type page []byte

func (p page) nslots() int     { return int(le.Uint16(p[0:2])) }
func (p page) setNslots(n int) { le.PutUint16(p[0:2], uint16(n)) }
func (p page) low() int        { return int(le.Uint16(p[2:4])) }
func (p page) setLow(n int)    { le.PutUint16(p[2:4], uint16(n)) }

func (p page) slot(i int) uint16 { return slotAt(p[p.slotBase():], i) }
func (p page) setSlot(i int, v uint16) {
	le.PutUint16(p[p.slotBase()+i*slotSize:], v)
}

// slotAt decodes slot i of a slot array that starts at slots[0], so a
// loop over a page's slots takes the base once.
func slotAt(slots []byte, i int) uint16 { return le.Uint16(slots[i*slotSize:]) }

// initPage formats a zeroed buffer as an empty data page.
func initPage(p page) {
	p.setNslots(0)
	p.setLow(len(p))
}

// isBigPage reports whether the buffer holds a big-pair chain page.
func isBigPage(p []byte) bool { return len(p) >= 2 && le.Uint16(p[0:2]) == bigMagic }

// isBitmapPage reports whether the buffer holds an overflow-use bitmap.
func isBitmapPage(p []byte) bool { return len(p) >= 2 && le.Uint16(p[0:2]) == bitmapMagic }

// nentries returns the number of key/data entries on the page (regular
// pairs and big-pair refs; the overflow link does not count).
func (p page) nentries() int {
	n := p.nslots() / 2
	if p.ovflLink() != 0 {
		n--
	}
	return n
}

// ovflLink returns the overflow address chained after this page, or 0.
func (p page) ovflLink() oaddr {
	ns := p.nslots()
	if ns >= 2 && p.slot(ns-2) == markOvfl {
		return oaddr(p.slot(ns - 1))
	}
	return 0
}

// setOvflLink appends or rewrites the page's trailing overflow link.
// It requires slot space (4 bytes) if the link is not already present.
func (p page) setOvflLink(o oaddr) error {
	ns := p.nslots()
	if ns >= 2 && p.slot(ns-2) == markOvfl {
		p.setSlot(ns-1, uint16(o))
		return nil
	}
	if p.freeSpace() < 2*slotSize {
		return fmt.Errorf("%w: no slot space for overflow link", ErrCorrupt)
	}
	p.setSlot(ns, markOvfl)
	p.setSlot(ns+1, uint16(o))
	p.setNslots(ns + 2)
	return nil
}

// clearOvflLink removes the trailing overflow link if present.
func (p page) clearOvflLink() {
	ns := p.nslots()
	if ns >= 2 && p.slot(ns-2) == markOvfl {
		p.setNslots(ns - 2)
	}
}

// freeSpace returns the bytes available between the slot array and the
// packed data region.
func (p page) freeSpace() int {
	return p.low() - p.slotBase() - p.nslots()*slotSize
}

// linkReserve is kept free on every page so that a full page can always
// accept a trailing overflow link (two slots).
const linkReserve = 2 * slotSize

// fitsRegular reports whether a regular pair of the given sizes can be
// added to this page, leaving the link reserve intact.
func (p page) fitsRegular(klen, dlen int) bool {
	need := 2*slotSize + klen + dlen
	free := p.freeSpace()
	if p.ovflLink() == 0 {
		free -= linkReserve
	}
	return need <= free
}

// fitsRef reports whether a big-pair ref (slot space only) can be added.
func (p page) fitsRef() bool {
	free := p.freeSpace()
	if p.ovflLink() == 0 {
		free -= linkReserve
	}
	return 2*slotSize <= free
}

// entry describes one entry on a page as passed to forEach's callback.
type entry struct {
	kind entryKind
	key  []byte // regular: view into the page
	data []byte // regular: view into the page
	ref  oaddr  // big: chain start
}

type entryKind uint8

const (
	entryRegular entryKind = iota
	entryBig
)

// forEach calls fn for each key/data entry on the page in slot order,
// passing the entry index (0-based over entries, not slots). fn may not
// modify the page. Iteration stops early if fn returns false.
func (p page) forEach(fn func(i int, e entry) bool) error {
	ns, base := p.nslots(), p.slotBase()
	// Bounds-check the slot array before indexing: on a garbage page
	// (torn write, corruption) nslots can claim more slots than fit.
	if base+ns*slotSize > len(p) {
		return fmt.Errorf("%w: %d slots do not fit on a %d-byte page", ErrCorrupt, ns, len(p))
	}
	if p.low() > len(p) {
		return fmt.Errorf("%w: data low watermark %d beyond page end %d", ErrCorrupt, p.low(), len(p))
	}
	slots := p[base : base+ns*slotSize]
	low := len(p)
	idx := 0
	for s := 0; s+1 < ns; s += 2 {
		first := slotAt(slots, s)
		second := slotAt(slots, s+1)
		switch first {
		case markOvfl:
			if s != ns-2 {
				return fmt.Errorf("%w: overflow link not last on page", ErrCorrupt)
			}
			return p.checkLow(low)
		case markBig:
			if !fn(idx, entry{kind: entryBig, ref: oaddr(second)}) {
				return nil
			}
			idx++
		default:
			ko, do := int(first), int(second)
			if !(pageHdrSize <= do && do <= ko && ko <= low) {
				return fmt.Errorf("%w: bad slot offsets k=%d d=%d low=%d", ErrCorrupt, ko, do, low)
			}
			if !fn(idx, entry{kind: entryRegular, key: p[ko:low], data: p[do:ko]}) {
				return nil
			}
			low = do
			idx++
		}
	}
	return p.checkLow(low)
}

// pairAt decodes entry i as the regular pair in slots 2i and 2i+1, with
// forEach's bounds; ok is false when it does not decode that way.
func (p page) pairAt(i int) (key, data []byte, ok bool) {
	ns, base, low := p.nslots(), p.slotBase(), len(p)
	if 2*i+1 >= ns || base+ns*slotSize > len(p) || i > 0 && slotAt(p[base:], 2*i-2) >= markBig {
		return nil, nil, false
	}
	s := p[base:]
	if i > 0 {
		low = int(slotAt(s, 2*i-1))
	}
	ko, do := int(slotAt(s, 2*i)), int(slotAt(s, 2*i+1))
	if ko >= markBig || !(pageHdrSize <= do && do <= ko && ko <= low && low <= len(p)) {
		return nil, nil, false
	}
	return p[ko:low], p[do:ko], true
}

// checkLow verifies the stored low watermark against the lowest pair
// offset an exhaustive slot walk decoded. The field is redundant with
// the slot array, but a later insert trusts it when packing new bytes
// while readers delimit pairs by the neighboring slot offsets — a
// mismatch (a torn write merging a new watermark with old slots) would
// silently corrupt the next key stored on the page.
func (p page) checkLow(low int) error {
	if p.low() != low {
		return fmt.Errorf("%w: low watermark %d, lowest pair offset %d", ErrCorrupt, p.low(), low)
	}
	return nil
}

// addRegular inserts a regular pair. The caller must have checked
// fitsRegular. The pair is inserted before the trailing overflow link if
// one is present, otherwise appended.
func (p page) addRegular(key, data []byte) {
	ns := p.nslots()
	insert := ns
	if p.ovflLink() != 0 {
		insert = ns - 2
		// Shift the link's two slots up to make room.
		p.setSlot(ns, p.slot(ns-2))
		p.setSlot(ns+1, p.slot(ns-1))
	}
	low := p.low()
	ko := low - len(key)
	do := ko - len(data)
	copy(p[ko:low], key)
	copy(p[do:ko], data)
	p.setSlot(insert, uint16(ko))
	p.setSlot(insert+1, uint16(do))
	p.setNslots(ns + 2)
	p.setLow(do)
}

// addRef inserts a big-pair reference. The caller must have checked
// fitsRef.
func (p page) addRef(ref oaddr) {
	ns := p.nslots()
	insert := ns
	if p.ovflLink() != 0 {
		insert = ns - 2
		p.setSlot(ns, p.slot(ns-2))
		p.setSlot(ns+1, p.slot(ns-1))
	}
	p.setSlot(insert, markBig)
	p.setSlot(insert+1, uint16(ref))
	p.setNslots(ns + 2)
}

// removeEntry deletes entry i (0-based over entries), compacting the data
// region and adjusting later slots.
func (p page) removeEntry(i int) error {
	ns := p.nslots()
	low := len(p)
	idx := 0
	for s := 0; s+1 < ns; s += 2 {
		first := p.slot(s)
		if first == markOvfl {
			break
		}
		isBig := first == markBig
		var do int
		if !isBig {
			do = int(p.slot(s + 1))
		}
		if idx == i {
			if isBig {
				p.shiftSlotsDown(s+2, 2)
				return nil
			}
			// Remove the pair's bytes [do, low) — low here is the pair's
			// upper boundary — by sliding everything below it up.
			size := low - do
			plow := p.low()
			copy(p[plow+size:low], p[plow:do])
			p.setLow(plow + size)
			// Later regular slots move up by size.
			p.shiftSlotsDown(s+2, 2)
			p.adjustOffsets(s, size)
			return nil
		}
		if !isBig {
			low = do
		}
		idx++
	}
	return fmt.Errorf("%w: removeEntry(%d) out of range", ErrCorrupt, i)
}

// shiftSlotsDown moves slots [from, nslots) down by n slot positions and
// shrinks the slot count.
func (p page) shiftSlotsDown(from, n int) {
	ns := p.nslots()
	for s := from; s < ns; s++ {
		p.setSlot(s-n, p.slot(s))
	}
	p.setNslots(ns - n)
}

// adjustOffsets adds size to every regular-pair offset in slots
// [from, nslots): those pairs' bytes were slid up by size.
func (p page) adjustOffsets(from, size int) {
	ns := p.nslots()
	for s := from; s+1 < ns; s += 2 {
		first := p.slot(s)
		if first == markOvfl || first == markBig {
			continue
		}
		p.setSlot(s, first+uint16(size))
		p.setSlot(s+1, p.slot(s+1)+uint16(size))
	}
}
