package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"

	"unixhash/internal/pagefile"
	"unixhash/internal/trace"
	"unixhash/internal/wal"
)

// Crash recovery.
//
// The durable dirty mark (markDirty) guarantees that a dirty
// on-disk header is always the header of the last completed sync, plus
// the flag: geometry, spares, key count and pair fingerprint all describe
// the state every pair of which was durably on disk. Recovery therefore
// has an exact target. The walker below reads the pages directly from
// the store (bypassing the buffer pool), recomputes (nkeys, pairSum) for
// the reachable pairs, and plans repairs for artifacts that are provably
// post-sync:
//
//   - an overflow link or big-pair reference pointing beyond the
//     last-synced allocation (those pages did not exist at the sync, so
//     the pointer was written after it) — cut the link / drop the ref;
//   - an unparseable, torn or overwritten page reached by such a walk —
//     reset (primaries) or cut at the predecessor (chain pages).
//
// Repairs are candidates, not conclusions: the file is accepted only if
// the recomputed count and fingerprint exactly equal the header's. That
// strict gate is what makes liberal repair planning sound — dropping
// anything that was actually part of the last-synced state changes the
// fingerprint and the file is declared unrecoverable, loudly, instead of
// silently returning wrong answers. (A superset check would not be
// sound: a crash mid-split can lose pre-sync pairs while post-sync
// inserts mask the count.)
//
// After acceptance the repairs are applied, the overflow-use bitmaps are
// rebuilt from reachability, and a normal two-phase sync stamps the file
// clean. Recovery crashing mid-repair is itself recoverable: the header
// stays dirty until the final sync, and re-running recovery converges
// (repairs only remove post-sync artifacts).

// errPostSync marks a structural anomaly that a planned repair can
// remove: the content is provably (or gate-checkably) post-sync.
var errPostSync = errors.New("post-sync artifact")

// RecoveryReport describes what Recover found and did.
type RecoveryReport struct {
	WasDirty       bool   // the on-disk header carried the dirty flag
	Recovered      bool   // a dirty file was restored to its last-synced state
	NKeys          int64  // pairs present after recovery
	SyncEpoch      uint64 // sync epoch after recovery
	PagesReset     int    // torn primary pages reset to empty
	LinksCut       int    // post-sync overflow links cut
	RefsDropped    int    // post-sync entries dropped
	BitmapsRebuilt int    // overflow-use bitmaps rebuilt from reachability
	FiltersRebuilt int    // primary pages whose tag filters were rewritten
	WALTxns        int    // committed transactions replayed from the log
	WALOps         int    // puts/deletes those transactions contained
}

// String renders the report for the CLIs.
func (r RecoveryReport) String() string {
	wal := ""
	if r.WALTxns > 0 {
		wal = fmt.Sprintf(", %d txns (%d ops) replayed from the log", r.WALTxns, r.WALOps)
	}
	if !r.WasDirty {
		return fmt.Sprintf("clean (epoch %d, %d keys)%s", r.SyncEpoch, r.NKeys, wal)
	}
	return fmt.Sprintf("recovered to epoch %d: %d keys, %d pages reset, %d links cut, %d entries dropped, %d bitmaps rebuilt, %d filters rewritten%s",
		r.SyncEpoch, r.NKeys, r.PagesReset, r.LinksCut, r.RefsDropped, r.BitmapsRebuilt, r.FiltersRebuilt, wal)
}

// pageRepair is the planned edit for one physical page.
type pageRepair struct {
	reset   bool  // rewrite as an empty data page
	cutLink bool  // clear the trailing overflow link
	drops   []int // entry indices to remove (as seen by forEach)
}

// recovery is one dry-run walk over a dirty file.
type recovery struct {
	t       *Table
	claimed map[oaddr]string       // overflow page -> what references it
	plans   map[uint32]*pageRepair // physical page -> planned repair
	order   []uint32               // deterministic apply order
	count   int64
	sum     uint64
	filters int // primary pages whose tag filters applyRecovery rewrote
}

func (r *recovery) plan(pageno uint32) *pageRepair {
	p, ok := r.plans[pageno]
	if !ok {
		p = &pageRepair{}
		r.plans[pageno] = p
		r.order = append(r.order, pageno)
	}
	return p
}

// linkValid reports whether o addresses a page that existed at the last
// sync, per the header's spares. Anything else is a post-sync pointer.
func (r *recovery) linkValid(o oaddr) bool {
	s, pn := o.split(), o.pagenum()
	return s < maxSplits && s <= r.t.hdr.ovflPoint && pn >= 1 && pn <= r.t.hdr.allocatedAt(s)
}

// scanResult is what one page contributes if it survives intact. Side
// effects are deferred so a parse failure mid-page commits nothing.
type scanResult struct {
	next   oaddr // trailing overflow link (0 if none)
	count  int64
	sum    uint64
	drops  []int
	claims []oaddr // big-chain pages claimed by entries on this page
}

// recoverLocked dry-runs the walk and the acceptance gate. On success the
// returned recovery holds the verified accounting, the claims and the
// planned repairs; nothing has been written. The caller holds t.mu.
func (t *Table) recoverLocked() (*recovery, error) {
	r := &recovery{t: t, claimed: map[oaddr]string{}, plans: map[uint32]*pageRepair{}}

	// The bitmap addressing invariants must hold before any oaddr can be
	// trusted: each populated split point's bitmap is its first page.
	for s := uint32(0); s <= t.hdr.ovflPoint; s++ {
		alloc, bm := t.hdr.allocatedAt(s), t.hdr.bitmaps[s]
		if alloc > 0 && bm != uint16(makeOaddr(s, 1)) {
			return nil, fmt.Errorf("%w: split point %d has %d pages but bitmap address %v", ErrUnrecoverable, s, alloc, oaddr(bm))
		}
		if alloc == 0 && bm != 0 {
			return nil, fmt.Errorf("%w: split point %d has a bitmap but no pages", ErrUnrecoverable, s)
		}
	}

	for b := uint32(0); b <= t.hdr.maxBucket; b++ {
		if err := r.walkBucket(b); err != nil {
			return nil, err
		}
	}

	if r.count != t.hdr.nkeys || r.sum != t.hdr.pairSum {
		return nil, fmt.Errorf("%w: pages hold %d pairs (fingerprint %#x); the last sync recorded %d (%#x)",
			ErrUnrecoverable, r.count, r.sum, t.hdr.nkeys, t.hdr.pairSum)
	}
	return r, nil
}

// walkBucket walks one bucket's chain with direct store reads.
func (r *recovery) walkBucket(b uint32) error {
	t := r.t
	buf := make([]byte, t.hdr.bsize)
	pageno := t.hdr.bucketToPage(b)

	if err := t.store.ReadPage(pageno, buf); err != nil {
		if errors.Is(err, pagefile.ErrNotAllocated) {
			return nil // never written: an empty bucket
		}
		return fmt.Errorf("%w: bucket %d primary page %d unreadable: %v", ErrUnrecoverable, b, pageno, err)
	}
	res, err := r.scanPage(b, page(buf))
	if err != nil {
		if errors.Is(err, errPostSync) {
			// A torn or overwritten primary: plan a reset to empty. Any
			// chain behind it is unreachable and stays unclaimed — if it
			// held last-synced pairs the gate rejects the file.
			r.plan(pageno).reset = true
			return nil
		}
		return err
	}
	r.commit(pageno, res)

	holder := pageno // the page whose link points at the page under scan
	next := res.next
	for hops := 0; next != 0; hops++ {
		if hops > 1<<16 {
			return fmt.Errorf("%w: bucket %d chain exceeds 65536 pages", ErrUnrecoverable, b)
		}
		if !r.linkValid(next) {
			r.plan(holder).cutLink = true
			return nil
		}
		if prev, dup := r.claimed[next]; dup {
			return fmt.Errorf("%w: overflow page %v claimed by both %s and bucket %d's chain", ErrUnrecoverable, next, prev, b)
		}
		pageno = t.hdr.oaddrToPage(next)
		if err := t.store.ReadPage(pageno, buf); err != nil {
			if errors.Is(err, pagefile.ErrNotAllocated) {
				r.plan(holder).cutLink = true
				return nil
			}
			return fmt.Errorf("%w: overflow page %v unreadable: %v", ErrUnrecoverable, next, err)
		}
		res, err := r.scanPage(b, page(buf))
		if err != nil {
			if errors.Is(err, errPostSync) {
				r.plan(holder).cutLink = true
				return nil
			}
			return err
		}
		r.claimed[next] = fmt.Sprintf("bucket %d's chain", b)
		r.commit(pageno, res)
		holder, next = pageno, res.next
	}
	return nil
}

// commit applies a surviving page's deferred contributions.
func (r *recovery) commit(pageno uint32, res scanResult) {
	r.count += res.count
	r.sum ^= res.sum
	if len(res.drops) > 0 {
		p := r.plan(pageno)
		p.drops = append(p.drops, res.drops...)
	}
	for _, o := range res.claims {
		r.claimed[o] = fmt.Sprintf("big pair via page %d", pageno)
	}
}

// scanPage validates one chain page and computes its contribution. It
// returns errPostSync (wrapped) when the page itself cannot be part of
// the last-synced state and the caller should reset or cut it.
func (r *recovery) scanPage(b uint32, pg page) (scanResult, error) {
	t := r.t
	var res scanResult
	var inner error
	pending := map[oaddr]bool{} // big-chain claims local to this page
	ferr := pg.forEach(func(i int, e entry) bool {
		switch e.kind {
		case entryRegular:
			if want := t.calcBucket(t.hash(e.key)); want != b {
				// Hashes elsewhere under the last-synced masks: a
				// post-sync insert under grown masks. Drop candidate.
				res.drops = append(res.drops, i)
				return true
			}
			res.count++
			res.sum ^= pairHash(e.key, e.data)
		case entryBig:
			key, data, pages, droppable, err := r.walkBigChain(e.ref, pending)
			if err != nil {
				inner = err
				return false
			}
			if !droppable {
				if want := t.calcBucket(t.hash(key)); want != b {
					droppable = true
				}
			}
			if droppable {
				res.drops = append(res.drops, i)
				return true
			}
			for _, o := range pages {
				pending[o] = true
			}
			res.claims = append(res.claims, pages...)
			res.count++
			res.sum ^= pairHash(key, data)
		}
		return true
	})
	if ferr != nil {
		// Structural damage (bad slots, wrong magic, torn write): the
		// page content is not the last-synced content.
		return res, fmt.Errorf("%w: %v", errPostSync, ferr)
	}
	if inner != nil {
		return res, inner
	}
	res.next = pg.ovflLink()
	return res, nil
}

// walkBigChain reads a big-pair chain directly from the store. droppable
// reports a structural anomaly that marks the referencing entry as a
// post-sync drop candidate; err is reserved for unrecoverable conflicts
// (a page claimed by two owners).
func (r *recovery) walkBigChain(start oaddr, pending map[oaddr]bool) (key, data []byte, pages []oaddr, droppable bool, err error) {
	t := r.t
	buf := make([]byte, t.hdr.bsize)
	var payload []byte
	local := map[oaddr]bool{}
	for o := start; o != 0; {
		if !r.linkValid(o) || local[o] || len(pages) > 1<<16 {
			return nil, nil, nil, true, nil
		}
		if prev, dup := r.claimed[o]; dup {
			return nil, nil, nil, false, fmt.Errorf("%w: overflow page %v claimed by both %s and the big chain at %v", ErrUnrecoverable, o, prev, start)
		}
		if pending[o] {
			return nil, nil, nil, false, fmt.Errorf("%w: overflow page %v claimed by two big chains on one page", ErrUnrecoverable, o)
		}
		local[o] = true
		pages = append(pages, o)
		if err := t.store.ReadPage(t.hdr.oaddrToPage(o), buf); err != nil {
			if errors.Is(err, pagefile.ErrNotAllocated) {
				return nil, nil, nil, true, nil
			}
			return nil, nil, nil, false, fmt.Errorf("%w: big chain page %v unreadable: %v", ErrUnrecoverable, o, err)
		}
		if !isBigPage(buf) {
			return nil, nil, nil, true, nil
		}
		payload = append(payload, buf[bigHdrSize:]...)
		o = oaddr(le.Uint16(buf[bigNextOffset:]))
	}
	if len(payload) < bigLenPrefix {
		return nil, nil, nil, true, nil
	}
	klen := int(le.Uint32(payload[0:]))
	dlen := int(le.Uint32(payload[4:]))
	if bigLenPrefix+klen+dlen > len(payload) || klen == 0 {
		return nil, nil, nil, true, nil
	}
	key = payload[bigLenPrefix : bigLenPrefix+klen]
	data = payload[bigLenPrefix+klen : bigLenPrefix+klen+dlen]
	return key, data, pages, false, nil
}

// applyRecovery writes the planned repairs, rebuilds the overflow-use
// bitmaps from reachability, and stamps the file clean with a two-phase
// sync. The caller holds t.mu and the gate has passed.
func (t *Table) applyRecovery(r *recovery) error {
	buf := make([]byte, t.hdr.bsize)
	for _, pageno := range r.order {
		p := r.plans[pageno]
		if p.reset {
			clear(buf)
			initPage(page(buf))
			if err := t.store.WritePage(pageno, buf); err != nil {
				return err
			}
			continue
		}
		if err := t.store.ReadPage(pageno, buf); err != nil {
			return err
		}
		pg := page(buf)
		sort.Sort(sort.Reverse(sort.IntSlice(p.drops)))
		for _, i := range p.drops {
			if err := pg.removeEntry(i); err != nil {
				return err
			}
		}
		if p.cutLink {
			pg.clearOvflLink()
		}
		if err := t.store.WritePage(pageno, buf); err != nil {
			return err
		}
	}
	t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepRepairs, uint64(len(r.order)), 0, 0)

	// Rebuild every bitmap from the claim map: a bit is set for the
	// bitmap page itself and for each page a verified chain reaches.
	// Everything else at that split point is free for reuse.
	used := make([]int, maxSplits)
	rebuilt := 0
	for s := range t.bitmapBuf {
		t.bitmapBuf[s] = nil
		t.bitmapDirty[s] = false
		t.freeCount[s] = 0
	}
	for s := uint32(0); s <= t.hdr.ovflPoint; s++ {
		if t.hdr.bitmaps[s] == 0 {
			continue
		}
		bm := make([]byte, t.hdr.bsize)
		le.PutUint16(bm[0:2], bitmapMagic)
		bm[bitmapHdrSize] |= 1 // bit 0: the bitmap page itself
		t.bitmapBuf[s] = bm
		t.bitmapDirty[s] = true
		used[s] = 1
		rebuilt++
	}
	for o := range r.claimed {
		s, pn := o.split(), o.pagenum()
		bm := t.bitmapBuf[s]
		if bm == nil {
			return fmt.Errorf("%w: claimed page %v at split point without a bitmap", ErrCorrupt, o)
		}
		bitmapSet(bm, pn-1)
		used[s]++
	}
	for s := uint32(0); s <= t.hdr.ovflPoint; s++ {
		if t.bitmapBuf[s] != nil {
			t.freeCount[s] = int(t.hdr.allocatedAt(s)) - used[s]
		}
	}
	t.hdr.lastFreed = 0
	t.dirtyHdr.Store(true)
	t.needsRecovery = false
	// The surviving pairs are exactly the last-synced state, so resync
	// the shared-phase running counters with the header before syncLocked
	// folds them back.
	t.nkeysA.Store(t.hdr.nkeys)
	t.pairSumA.Store(t.hdr.pairSum)
	t.publishGeo()
	t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepBitmaps, uint64(rebuilt), 0, 0)

	// Tag filters are pure acceleration state and are never trusted
	// across a crash: a torn filter write could hide a surviving pair (a
	// false-negative hazard) without perturbing the count/fingerprint
	// gate, which deliberately ignores the filter bytes. Rebuild every
	// bucket's filter from the (now repaired) pair data. The header is
	// still dirty until syncLocked below, so a crash mid-rebuild re-runs
	// recovery and converges.
	filters, err := t.rebuildFilters()
	if err != nil {
		return err
	}
	r.filters = filters
	t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepFilters, uint64(filters), 0, 0)
	if err := t.syncLocked(); err != nil {
		return err
	}
	t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepDone, uint64(t.hdr.nkeys), t.hdr.syncEpoch, 0)
	return nil
}

// rebuildFilters recomputes every bucket's tag-filter region from the
// surviving pair data, with direct store I/O (the buffer pool is still
// cold at this point, apart from big-pair reads). A bucket's primary is
// rewritten only when the rebuilt region differs from what was on disk.
// Returns the number of primary pages rewritten. The caller holds t.mu.
func (t *Table) rebuildFilters() (int, error) {
	bsize := int(t.hdr.bsize)
	base := slotBaseFor(bsize)
	buf := make([]byte, bsize)
	cbuf := make([]byte, bsize)
	before := make([]byte, base-pageHdrSize)
	written := 0
	for b := uint32(0); b <= t.hdr.maxBucket; b++ {
		pageno := t.hdr.bucketToPage(b)
		if err := t.store.ReadPage(pageno, buf); err != nil {
			if errors.Is(err, pagefile.ErrNotAllocated) {
				continue // never written: an empty bucket
			}
			return written, err
		}
		pg := page(buf)
		copy(before, buf[pageHdrSize:base])
		pg.filterReset()
		// Walk the (already repaired) chain, tagging every key at its
		// chain position. Filter bytes always live on the primary, so
		// filterAdd targets pg regardless of which page holds the pair.
		pos, novfl := 0, 0
		cur := pg
		for {
			var inner error
			ferr := cur.forEach(func(_ int, e entry) bool {
				switch e.kind {
				case entryRegular:
					pg.filterAdd(t.hash(e.key), pos)
				case entryBig:
					bk, err := t.bigKey(e.ref)
					if err != nil {
						inner = err
						return false
					}
					pg.filterAdd(t.hash(bk), pos)
				}
				return true
			})
			if ferr != nil {
				return written, fmt.Errorf("%w: bucket %d filter rebuild: %v", ErrCorrupt, b, ferr)
			}
			if inner != nil {
				return written, inner
			}
			next := cur.ovflLink()
			if next == 0 {
				break
			}
			novfl++
			if novfl > 1<<16 {
				return written, fmt.Errorf("%w: bucket %d chain exceeds 65536 pages during filter rebuild", ErrUnrecoverable, b)
			}
			if err := t.store.ReadPage(t.hdr.oaddrToPage(next), cbuf); err != nil {
				return written, err
			}
			cur = page(cbuf)
			pos++
		}
		pg.setFltChainLen(novfl)
		if !bytes.Equal(before, buf[pageHdrSize:base]) {
			if err := t.store.WritePage(pageno, buf); err != nil {
				return written, err
			}
			written++
		}
	}
	return written, nil
}

// Recover opens the table at path (or Options.Store), and if its dirty
// flag is set verifies that the pages reproduce the exact state of the
// last completed sync — repairing provably post-sync artifacts — before
// stamping it clean. A file whose pages cannot reproduce that state
// fails loudly with ErrUnrecoverable and is left untouched. The returned
// table is open and ready for use.
func Recover(path string, o *Options) (*Table, RecoveryReport, error) {
	var rep RecoveryReport
	var opts Options
	if o != nil {
		opts = *o
	}
	if opts.ReadOnly {
		return nil, rep, fmt.Errorf("hash: recovery requires write access")
	}
	// Open would create a missing file; recovering one is a caller
	// mistake (a typo'd path) that must not manufacture an empty table.
	if path != "" && opts.Store == nil {
		if _, err := os.Stat(path); err != nil {
			return nil, rep, fmt.Errorf("hash: recover %s: %w", path, err)
		}
	}
	opts.AllowDirty = true
	t, err := Open(path, &opts)
	if err != nil {
		return nil, rep, err
	}

	t.mu.Lock()
	rep.WasDirty = t.needsRecovery
	if t.needsRecovery {
		err = t.recoverPages(&rep)
	}
	rep.NKeys, rep.SyncEpoch = t.hdr.nkeys, t.hdr.syncEpoch
	t.mu.Unlock()
	if err == nil && t.log != nil {
		// The page-level recovery restored (or confirmed) the exact
		// checkpoint state, so the log's commits above it apply onto
		// precisely the state they were logged against.
		var reps []wal.Replayed
		if reps, err = t.log.Recover(); err != nil {
			err = fmt.Errorf("hash: replay: %w", err)
		} else {
			rep.WALTxns, rep.WALOps = reps[0].Txns, reps[0].Ops
			rep.NKeys = int64(t.Len())
			_, rep.SyncEpoch = t.Stamp()
		}
	}
	if err != nil {
		t.n.recoverFailures.Inc()
		t.Close()
		return nil, rep, err
	}
	return t, rep, nil
}

// recoverPages runs the page-level recovery of a dirty table: the walk,
// the strict gate and the repairs, filling rep. The caller holds t.mu.
func (t *Table) recoverPages(rep *RecoveryReport) error {
	t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepWalk, uint64(t.hdr.maxBucket+1), 0, 0)
	r, err := t.recoverLocked()
	if err == nil {
		t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepGate, uint64(r.count), uint64(len(r.order)), 0)
		err = t.applyRecovery(r)
	}
	if err != nil {
		return err
	}
	rep.Recovered = true
	for _, pageno := range r.order {
		p := r.plans[pageno]
		if p.reset {
			rep.PagesReset++
		}
		if p.cutLink {
			rep.LinksCut++
		}
		rep.RefsDropped += len(p.drops)
	}
	for s := range t.bitmapBuf {
		if t.bitmapBuf[s] != nil {
			rep.BitmapsRebuilt++
		}
	}
	rep.FiltersRebuilt = r.filters
	t.n.recoverRepairs.Add(int64(rep.PagesReset + rep.LinksCut + rep.RefsDropped))
	return nil
}

// Verify checks the table without modifying it. On a cleanly synced
// table it runs the full structural Check. On a table opened dirty
// (AllowDirty) it dry-runs recovery: the result is ErrNeedsRecovery if
// the last-synced state is intact and recoverable, or an
// ErrUnrecoverable error describing what was lost. Verify of a dirty
// file therefore never returns nil.
func (t *Table) Verify() error {
	t.mu.Lock()
	if err := t.checkOpen(); err != nil {
		t.mu.Unlock()
		return err
	}
	if t.needsRecovery {
		_, err := t.recoverLocked()
		t.mu.Unlock()
		if err != nil {
			return err
		}
		return fmt.Errorf("%w (last-synced state intact; run recovery)", ErrNeedsRecovery)
	}
	t.mu.Unlock()
	return t.Check()
}
