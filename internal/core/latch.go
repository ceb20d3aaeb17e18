package core

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"unixhash/internal/buffer"
	"unixhash/internal/oplog"
	"unixhash/internal/trace"
)

// Bucket-granular write concurrency.
//
// The table lock does not serialize writers: every Get and every write
// set (Put, Delete, PutBatch, a transaction commit — see applySet in
// batch.go) takes it shared and latches only the stripes covering the
// bucket chains it touches. The split pointer (hdr.maxBucket) is
// published through a single atomic (t.geo) that every operation routes
// against, seqlock-style: an operation routes, latches, then re-checks
// the route — if a split moved a bucket boundary in between, it unlatches
// and retries. A split is one more writer: it write-latches the old and
// the new bucket before it publishes the new split pointer and holds both
// until the last pair has moved, so an operation that routes onto either
// bucket — by the old pointer or the new — queues on the stripe like
// behind any writer and re-routes once the split is done.
//
// The lock order, top to bottom (never taken upward):
//
//	t.mu (shared for bucket ops and write sets, exclusive for Sync/
//	  Close/Check/presize/...)
//	→ wal.Log.mu (txn commit appends while holding t.mu shared)
//	→ t.splitMu (one split at a time; taken only after the write set
//	  that earned the split has unlatched)
//	→ bucket stripe latches (a reader takes one; a write set takes every
//	  stripe its ops route to and a split the pair of its two buckets —
//	  always in ascending stripe index, so multi-latch acquisitions
//	  cannot deadlock one another)
//	→ t.ovflMu / t.dirtyMu
//	→ buffer shard locks
//
// A splitter holds its shared table lock until the split completes, so
// an exclusive acquirer (Sync, Close, presize) can never observe a
// half-redistributed bucket. The WAL's own mutex sits above the stripe
// latches: a commit finishes its log append and fsync before latching
// any bucket, and nothing that holds a latch ever appends.

// nStripes is the number of bucket latches. Buckets map to stripes by
// their low bits, so the two buckets of a split (new = old + 2^k) land on
// distinct stripes until 2^k reaches nStripes, after which they coincide
// and one acquisition covers both.
const (
	nStripes   = 128
	stripeMask = nStripes - 1
)

func (t *Table) stripeFor(b uint32) *sync.RWMutex { return &t.stripes[b&stripeMask] }

// routeBucket is calcBucket restated over the split pointer alone, so
// the shared phase routes against one atomic word instead of the three
// header fields. The identity: the bit length L of maxBucket fixes
// highMask = 2^L-1 and lowMask = 2^(L-1)-1 for every state expansion can
// reach, and for the freshly initialized table (maxBucket = 2^k-1 with
// stored masks one generation wider) both formulations reduce to
// h & (2^k - 1). TestRouteBucketMatchesCalc pins the equivalence.
func routeBucket(h, maxBucket uint32) uint32 {
	m := uint32(1)<<bits.Len32(maxBucket) - 1
	b := h & m
	if b > maxBucket {
		b = h & (m >> 1)
	}
	return b
}

// publishGeo publishes hdr.maxBucket to the routing atomic. Called after
// any geometry change: header init/read, a split, presize, recovery.
func (t *Table) publishGeo() { t.geo.Store(t.hdr.maxBucket) }

// xorPairSum folds one pair fingerprint into the live checksum (XOR has
// no sync/atomic primitive, so CAS).
func (t *Table) xorPairSum(v uint64) {
	for {
		old := t.pairSumA.Load()
		if t.pairSumA.CompareAndSwap(old, old^v) {
			return
		}
	}
}

// lockBucket routes hash h to its bucket and read-latches that bucket's
// stripe: the lookup path (a write set latches through latchStripes).
// The route is validated after the latch is held: a split that moved the
// boundary in between (a stale t.geo read) sends the reader back to
// route again, and a split still in flight holds the stripe, so the
// reader queues on it. Only a latch whose try-lock fails is a wait: it
// alone reads the clock and charges led's latch phase. Returns the
// bucket number; the caller read-unlatches t.stripeFor(bucket).
func (t *Table) lockBucket(h uint32, led *oplog.Ledger) uint32 {
	for {
		b := routeBucket(h, t.geo.Load())
		s := t.stripeFor(b)
		if !s.TryRLock() {
			var st int64
			if led != nil {
				st = oplog.Clock()
			}
			s.RLock()
			led.Since(oplog.PhaseLatchWait, st)
		}
		if routeBucket(h, t.geo.Load()) == b {
			return b
		}
		s.RUnlock()
	}
}

// stripeSet is a set of stripe indices: the latches a write set or a
// split needs.
type stripeSet [nStripes / 64]uint64

func (s *stripeSet) add(bucket uint32) {
	i := bucket & stripeMask
	s[i/64] |= 1 << (i % 64)
}

// latchStripes write-latches (or releases) the stripes in set in
// ascending index order — the one canonical order, shared by write sets
// and splits, that keeps multi-stripe acquisitions deadlock-free. A
// stripe whose try-lock fails is a wait, charged to led's latch phase;
// an uncontended sweep reads no clock.
func (t *Table) latchStripes(set stripeSet, lock bool, led *oplog.Ledger) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			s := &t.stripes[w*64+bits.TrailingZeros64(word)]
			switch {
			case !lock:
				s.Unlock()
			case !s.TryLock():
				var st int64
				if led != nil {
					st = oplog.Clock()
				}
				s.Lock()
				led.Since(oplog.PhaseLatchWait, st)
			}
		}
	}
}

// latchPair write-latches (or releases) the stripes of the two buckets of
// a split, collapsing to one acquisition when both share a stripe.
func (t *Table) latchPair(a, b uint32, lock bool) {
	var set stripeSet
	set.add(a)
	set.add(b)
	t.latchStripes(set, lock, nil)
}

// maybeExpand runs one growth step of the hybrid split policy — the only
// splitter there is — on behalf of a writer whose set has unlatched. At
// most one split runs at a time; ran is false when one is already in
// flight, and the caller simply continues — the controlled trigger
// re-fires while nkeys stays high, and an uncontrolled trigger is
// re-armed so it is not lost.
//
// The split is one latched step: both buckets' stripes are write-latched
// before the new geometry is published and released only after the last
// pair has moved, so no other operation ever sees either bucket between
// the two geometries.
func (t *Table) maybeExpand(uncontrolled bool) (ran bool, err error) {
	if !t.splitMu.TryLock() {
		if uncontrolled {
			t.addedOvfl.Store(true)
		}
		return false, nil
	}
	defer t.splitMu.Unlock()
	if t.hdr.maxBucket == ^uint32(0) {
		return false, fmt.Errorf("hash: table is at maximum size")
	}
	var t0 time.Time
	if t.tr.Ring() != nil {
		t0 = time.Now()
	}
	newBucket := t.hdr.maxBucket + 1
	oldBucket := newBucket & t.hdr.lowMask
	t.latchPair(oldBucket, newBucket, true)
	defer t.latchPair(oldBucket, newBucket, false)
	t.growGeometry()
	t.publishGeo()

	t.tr.Emit(trace.EvSplitBegin, uint64(oldBucket), uint64(newBucket), uint64(t.hdr.maxBucket), boolArg(uncontrolled))
	moved, nchain, err := t.splitBucket(oldBucket, newBucket)
	var d time.Duration
	if t.tr.Ring() != nil {
		d = time.Since(t0)
	}
	t.tr.EmitDur(trace.EvSplitEnd, d, uint64(oldBucket), uint64(newBucket), uint64(moved), uint64(nchain))
	return true, err
}

// growGeometry advances the split pointer and masks — one step of linear
// hashing. One rule: only the splitMu holder calls it; the spares advance
// shares ovflMu with the overflow allocator.
func (t *Table) growGeometry() {
	t.hdr.maxBucket++
	newBucket := t.hdr.maxBucket
	if newBucket > t.hdr.highMask {
		// A generation completed: every bucket that existed at the start
		// of the generation has split. Double the address space.
		t.hdr.lowMask = t.hdr.highMask
		t.hdr.highMask = newBucket | t.hdr.lowMask
	}
	// Advance the overflow split point when a new generation begins, so
	// subsequent overflow pages are allocated after the new primaries.
	t.ovflMu.Lock()
	if spareIdx := ceilLog2(newBucket + 1); spareIdx > t.hdr.ovflPoint {
		t.hdr.spares[spareIdx] = t.hdr.spares[t.hdr.ovflPoint]
		t.hdr.ovflPoint = spareIdx
	}
	t.ovflMu.Unlock()
	t.dirtyHdr.Store(true)
}

// splitEntry is one entry gathered from a splitting bucket.
type splitEntry struct {
	key  []byte
	data []byte
	ref  oaddr // non-zero: big pair, key/data stay on their chain
}

// splitBucket redistributes the old bucket by the newly revealed hash
// bit: its pairs are copied out (the pages are reformatted in place), the
// old primary reset, its overflow chain reclaimed, the new primary
// initialized, and every pair placed in whichever of the two buckets the
// published geometry routes it to. It reports the pairs moved and the
// chain pages reclaimed. Caller holds splitMu and both buckets' latches;
// the gather goes to the table's split scratch, which only the splitMu
// holder touches, so a split allocates nothing once the scratch has grown
// to the largest bucket.
func (t *Table) splitBucket(oldB, newB uint32) (moved, nchain int, err error) {
	s := &t.split
	s.entries, s.chain, s.bytes = s.entries[:0], s.chain[:0], s.bytes[:0]
	err = t.walkChain(nil, oldB, true, func(buf *buffer.Buf) (bool, error) {
		if buf.Addr.Ovfl {
			s.chain = append(s.chain, oaddr(buf.Addr.N))
		}
		pg := page(buf.Page)
		return false, pg.forEach(func(i int, e entry) bool {
			switch e.kind {
			case entryRegular:
				// A regrown s.bytes leaves earlier entries on the old
				// block, which they keep alive unchanged.
				k := len(s.bytes)
				s.bytes = append(append(s.bytes, e.key...), e.data...)
				d, end := k+len(e.key), len(s.bytes)
				s.entries = append(s.entries, splitEntry{key: s.bytes[k:d:d], data: s.bytes[d:end:end]})
			case entryBig:
				s.entries = append(s.entries, splitEntry{ref: e.ref})
			}
			return true
		})
	})
	if err != nil {
		return 0, 0, err
	}
	entries, chain := s.entries, s.chain

	// Reset the old primary, reclaim the chain (freeOvfl discards any
	// resident buffer for each freed page) and initialize the new primary.
	// Both primaries stay pinned, and so does every page their chains
	// grow, until the last pair is placed.
	defer t.releaseSplitPages()
	if err := t.formatPrimary(0, oldB); err != nil {
		return 0, len(chain), err
	}
	for _, o := range chain {
		if err := t.freeOvfl(o); err != nil {
			return 0, len(chain), err
		}
	}
	if err := t.formatPrimary(1, newB); err != nil {
		return 0, len(chain), err
	}
	for i := range entries {
		if err := t.placeSplitEntry(oldB, newB, &entries[i]); err != nil {
			return i, len(chain), err
		}
	}
	return len(entries), len(chain), nil
}

// formatPrimary empties bucket b's primary page in place and keeps it
// pinned as the head of the split's destination chain d (0 old, 1 new).
func (t *Table) formatPrimary(d int, b uint32) error {
	pb, err := t.getBucketPage(nil, b)
	if err != nil {
		return err
	}
	clear(pb.Page)
	initPage(page(pb.Page))
	pb.MarkDirty()
	t.split.dest[d] = append(t.split.dest[d], pb)
	return nil
}

// releaseSplitPages unpins the split's destination chains.
func (t *Table) releaseSplitPages() {
	for d, pages := range t.split.dest {
		for _, b := range pages {
			t.pool.Put(b)
		}
		clear(pages)
		t.split.dest[d] = pages[:0]
	}
}

// placeSplitEntry places one gathered pair first fit on the pinned chain
// of whichever bucket the new geometry routes it to, growing the chain
// when no page has room, and tags it on that pinned primary.
func (t *Table) placeSplitEntry(oldB, newB uint32, e *splitEntry) error {
	key := e.key
	if e.ref != 0 {
		var err error
		if key, err = t.bigKey(e.ref); err != nil {
			return err
		}
	}
	h := t.hash(key)
	dest := routeBucket(h, t.geo.Load())
	if dest != oldB && dest != newB {
		return fmt.Errorf("%w: split of bucket %d sent key to bucket %d (new %d)", ErrCorrupt, oldB, dest, newB)
	}
	op := writeOp{key: e.key, data: e.data, ref: e.ref}
	pages := &t.split.dest[boolArg(dest == newB)] // 0 old, 1 new
	pos := 0
	for pos < len(*pages) && !op.fits(page((*pages)[pos].Page)) {
		pos++
	}
	if pos == len(*pages) {
		nb, err := t.appendOvfl((*pages)[pos-1])
		if err != nil {
			return err
		}
		if *pages = append(*pages, nb); !op.fits(page(nb.Page)) {
			return fmt.Errorf("%w: pair does not fit on empty page", ErrCorrupt)
		}
	}
	op.addTo(page((*pages)[pos].Page))
	(*pages)[pos].MarkDirty()
	page((*pages)[0].Page).filterAdd(h)
	return nil
}
