package core

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"unixhash/internal/buffer"
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
// and retries. Splits themselves are incremental and cooperative: the
// writer that trips the split policy empties the old bucket under both
// bucket latches, publishes the gathered pairs as a shared job, and moves
// them back in bounded chunks; any writer that lands on one of the two
// involved buckets claims chunks of its own instead of queueing, so no
// writer ever stalls the world behind a rehash.
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
//	→ t.split.mu / t.ovflMu / t.dirtyMu
//	→ buffer shard locks
//
// A split initiator holds its shared table lock until the split
// completes, so an exclusive acquirer (Sync, Close, presize) can never
// observe a half-redistributed bucket. The WAL's own mutex sits above
// the stripe latches: a commit finishes its log append and fsync before
// latching any bucket, and nothing that holds a latch ever appends.

const (
	// nStripes is the number of bucket latches. Buckets map to stripes by
	// their low bits, so the two buckets of a split (new = old + 2^k)
	// land on distinct stripes until 2^k reaches nStripes, after which
	// they coincide and one acquisition covers both.
	nStripes   = 128
	stripeMask = nStripes - 1

	// splitChunk bounds the slice of pairs one cooperative split step
	// moves while holding the two bucket latches — the paper's "split one
	// bucket at a time" made finer: move a few pairs at a time.
	splitChunk = 16
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

// splitState encodes the in-flight split in one atomic word: zero when
// no split is running, else splitActive | newBucket. The old bucket is
// derivable — it is the new bucket with its top bit cleared — so one
// load tells any operation whether its bucket is mid-split.
const splitActive = 1 << 63

func splitOld(newBucket uint32) uint32 {
	return newBucket &^ (1 << (bits.Len32(newBucket) - 1))
}

// splitInvolves reports whether bucket b is one of the two buckets of
// the split in flight, if any.
func (t *Table) splitInvolves(b uint32) bool {
	s := t.splitState.Load()
	if s == 0 {
		return false
	}
	nb := uint32(s)
	return b == nb || b == splitOld(nb)
}

// lockBucket routes hash h to its bucket and latches that bucket's
// stripe (exclusive for writers, shared for readers). The route is
// validated after the latch is held: a concurrent split may have moved
// the boundary (stale t.geo read) or may still be redistributing the
// bucket's pairs, in which case the operation backs off — helping the
// split along if it is a writer — and re-routes. Returns the bucket
// number; the caller unlatches t.stripeFor(bucket).
func (t *Table) lockBucket(h uint32, write bool) uint32 {
	for {
		b := routeBucket(h, t.geo.Load())
		s := t.stripeFor(b)
		if write {
			s.Lock()
		} else {
			s.RLock()
		}
		if routeBucket(h, t.geo.Load()) == b && !t.splitInvolves(b) {
			return b
		}
		if write {
			s.Unlock()
		} else {
			s.RUnlock()
		}
		if t.splitInvolves(b) {
			if write {
				t.helpSplit(b)
			} else {
				t.waitSplit(b)
			}
		}
	}
}

// latchBucketRead read-latches a known live bucket number (scans walk
// buckets directly rather than routing a hash), waiting out any split
// that involves it. The caller unlatches t.stripeFor(b).
func (t *Table) latchBucketRead(b uint32) {
	for {
		s := t.stripeFor(b)
		s.RLock()
		if !t.splitInvolves(b) {
			return
		}
		s.RUnlock()
		t.waitSplit(b)
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
// and splits, that keeps multi-stripe acquisitions deadlock-free.
func (t *Table) latchStripes(set stripeSet, lock bool) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			s := &t.stripes[w*64+bits.TrailingZeros64(word)]
			if lock {
				s.Lock()
			} else {
				s.Unlock()
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
	t.latchStripes(set, lock)
}

// splitEntry is one entry gathered from a splitting bucket.
type splitEntry struct {
	key  []byte
	data []byte
	ref  oaddr // non-zero: big pair, key/data stay on their chain
}

// splitJob is the shared state of the one in-flight cooperative split.
// The initiator gathers the old bucket's pairs into entries; initiator
// and helpers then claim [lo, hi) slices with the next cursor and insert
// them under the pair of bucket latches. moved tracks completed chunks;
// the goroutine that completes the last chunk finishes the split.
type splitJob struct {
	mu       sync.Mutex
	cond     *sync.Cond
	old, new uint32
	entries  []splitEntry
	nchain   int  // overflow pages the old chain held, for the end event
	next     int  // claim cursor into entries
	claimed  int  // total entries claimed
	moved    int  // total entries whose chunk completed
	gathered bool // entries is populated; chunks may be claimed
	done     bool // split complete; splitState already cleared
	helped   bool // at least one chunk was moved by a helper
	err      error
	t0       time.Time
}

// maybeExpand runs one growth step of the hybrid split policy — the only
// splitter there is — on behalf of a writer whose set has unlatched. At
// most one split runs at a time; ran is false when one is already in
// flight, and the caller simply continues — the controlled trigger
// re-fires while nkeys stays high, and an uncontrolled trigger is
// re-armed so it is not lost.
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
	oldBucket, newBucket := t.growGeometry()

	j := &t.split
	j.mu.Lock()
	j.old, j.new = oldBucket, newBucket
	j.entries = nil
	j.nchain, j.next, j.claimed, j.moved = 0, 0, 0, 0
	j.gathered, j.done, j.helped = false, false, false
	j.err = nil
	if t.tr != nil {
		j.t0 = time.Now()
	}
	j.mu.Unlock()

	// Publish the split before the new geometry: an operation that
	// routes with the new split pointer must find the split in progress
	// (both stores are sequentially consistent, so a load that observes
	// the new geometry also observes the split state).
	t.splitState.Store(splitActive | uint64(newBucket))
	t.publishGeo()

	if uncontrolled {
		t.m.splitsUncontrolled.Inc()
	} else {
		t.m.splitsControlled.Inc()
	}
	t.tr.Emit(trace.EvSplitBegin, uint64(oldBucket), uint64(newBucket), uint64(t.hdr.maxBucket), boolArg(uncontrolled))
	return true, t.runSplit(j)
}

// growGeometry advances the split pointer and masks — one step of linear
// hashing. One rule: only the splitMu holder calls it; the spares advance
// shares ovflMu with the overflow allocator.
func (t *Table) growGeometry() (oldBucket, newBucket uint32) {
	t.hdr.maxBucket++
	newBucket = t.hdr.maxBucket
	oldBucket = newBucket & t.hdr.lowMask
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
	return oldBucket, newBucket
}

// runSplit is the initiator's protocol: gather, claim chunks until none
// are left, then wait for helpers' in-flight chunks to complete.
func (t *Table) runSplit(j *splitJob) error {
	if err := t.gatherSplit(j); err != nil {
		j.mu.Lock()
		j.err = err
		t.finishSplitLocked(j)
		j.mu.Unlock()
		return err
	}
	for t.splitStep(j, false) {
	}
	j.mu.Lock()
	for !j.done {
		j.cond.Wait()
	}
	err := j.err
	j.mu.Unlock()
	return err
}

// gatherSplit empties the old bucket under both bucket latches: pairs
// are copied out (the pages are reformatted in place), the overflow
// chain reclaimed and the new primary initialized. Once the latches
// drop, the published splitState keeps every other operation off both
// buckets until redistribution completes, so the gathered pairs being
// reachable only through the job is safe.
func (t *Table) gatherSplit(j *splitJob) error {
	t.latchPair(j.old, j.new, true)
	err := t.gatherLatched(j)
	t.latchPair(j.old, j.new, false)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.gathered = true
	if len(j.entries) == 0 {
		// An empty bucket split: there are no chunks whose completion
		// could finish the job, so finish it here.
		t.finishSplitLocked(j)
	} else {
		j.cond.Broadcast() // helpers may be waiting for chunks to claim
	}
	j.mu.Unlock()
	return nil
}

func (t *Table) gatherLatched(j *splitJob) error {
	var entries []splitEntry
	var chain []oaddr
	err := t.walkChain(nil, j.old, func(buf *buffer.Buf) (bool, error) {
		if buf.Addr.Ovfl {
			chain = append(chain, oaddr(buf.Addr.N))
		}
		pg := page(buf.Page)
		return false, pg.forEach(func(i int, e entry) bool {
			switch e.kind {
			case entryRegular:
				entries = append(entries, splitEntry{
					key:  append([]byte(nil), e.key...),
					data: append([]byte(nil), e.data...),
				})
			case entryBig:
				entries = append(entries, splitEntry{ref: e.ref})
			}
			return true
		})
	})
	if err != nil {
		return err
	}

	// Reset the old primary page and reclaim the chain (freeOvfl discards
	// any resident buffer for each freed page).
	ob, err := t.getBucketPage(nil, j.old)
	if err != nil {
		return err
	}
	clear(ob.Page)
	initPage(page(ob.Page))
	ob.Dirty.Store(true)
	t.pool.Put(ob)
	for _, o := range chain {
		if err := t.freeOvfl(o); err != nil {
			return err
		}
	}

	// Initialize the new bucket's primary page.
	nb, err := t.getBucketPage(nil, j.new)
	if err != nil {
		return err
	}
	clear(nb.Page)
	initPage(page(nb.Page))
	nb.Dirty.Store(true)
	t.pool.Put(nb)

	j.entries = entries
	j.nchain = len(chain)
	return nil
}

// splitStep claims one bounded chunk of the gathered pairs and inserts
// them under the pair of bucket latches, redistributing by the newly
// revealed hash bit. It reports false when there is nothing to claim —
// the gather is still running, the split is done, or every chunk is
// claimed (possibly still in flight on other goroutines).
func (t *Table) splitStep(j *splitJob, helper bool) bool {
	j.mu.Lock()
	if !j.gathered || j.done || j.next >= len(j.entries) {
		j.mu.Unlock()
		return false
	}
	lo := j.next
	hi := lo + splitChunk
	if hi > len(j.entries) {
		hi = len(j.entries)
	}
	j.next = hi
	j.claimed += hi - lo
	if helper {
		j.helped = true
	}
	oldB, newB := j.old, j.new
	j.mu.Unlock()

	var err error
	t.latchPair(oldB, newB, true)
	for i := lo; i < hi; i++ {
		if err = t.placeSplitEntry(oldB, newB, &j.entries[i]); err != nil {
			break
		}
	}
	t.latchPair(oldB, newB, false)
	if t.tr != nil {
		t.tr.Emit(trace.EvSplitChunk, uint64(oldB), uint64(newB), uint64(hi-lo), boolArg(helper))
	}

	j.mu.Lock()
	j.moved += hi - lo
	if err != nil {
		if j.err == nil {
			j.err = err
		}
		j.next = len(j.entries) // stop further claims
	}
	if j.moved == j.claimed && j.next >= len(j.entries) {
		t.finishSplitLocked(j)
	}
	j.mu.Unlock()
	return true
}

// placeSplitEntry inserts one gathered pair into whichever of the two
// buckets the new geometry routes it to. Caller holds both latches.
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
	return t.insert(dest, h, &writeOp{key: e.key, data: e.data, ref: e.ref})
}

// finishSplitLocked completes the split: clears the published state so
// blocked operations may proceed, emits the end event and wakes every
// waiter. Caller holds j.mu.
func (t *Table) finishSplitLocked(j *splitJob) {
	j.done = true
	t.splitState.Store(0)
	if t.tr != nil {
		t.tr.EmitDur(trace.EvSplitEnd, time.Since(j.t0), uint64(j.old), uint64(j.new), uint64(len(j.entries)), uint64(j.nchain))
	}
	j.cond.Broadcast()
}

// helpSplit is the cooperative path: a writer that routed onto a bucket
// mid-split moves chunks of the pending rehash itself until none are
// left to claim, waits out any stragglers, and returns to retry its own
// operation.
func (t *Table) helpSplit(b uint32) {
	if t.tr != nil {
		t.tr.Emit(trace.EvLatchWait, uint64(b), 1, 0, 0)
	}
	j := &t.split
	for t.splitInvolves(b) {
		if t.splitStep(j, true) {
			continue
		}
		j.mu.Lock()
		if !j.done && (!j.gathered || j.next >= len(j.entries)) {
			j.cond.Wait()
		}
		j.mu.Unlock()
	}
}

// waitSplit blocks a reader until the split over its bucket completes.
func (t *Table) waitSplit(b uint32) {
	if t.tr != nil {
		t.tr.Emit(trace.EvLatchWait, uint64(b), 0, 0, 0)
	}
	j := &t.split
	j.mu.Lock()
	for !j.done && t.splitInvolves(b) {
		j.cond.Wait()
	}
	j.mu.Unlock()
}
