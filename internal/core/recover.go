package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"

	"unixhash/internal/buffer"
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
// has an exact target. One certifying walk reads every reachable page
// once, straight from the store (bypassing the buffer pool), recomputes
// (nkeys, pairSum) for the reachable pairs, records what each bucket's
// tag filter must hold, and plans repairs for artifacts that are
// provably post-sync:
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
// After acceptance one loop writes the repairs and every rebuilt filter
// region that differs from the page's, the overflow-use bitmaps are
// rebuilt from the walk's claims, and a normal two-phase sync stamps the
// file clean. Recovery crashing mid-repair is itself recoverable: the
// header stays dirty until the final sync, and re-running recovery
// converges (repairs only remove post-sync artifacts). Check runs the
// same walk over the pool's pages of a live table.

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
	reset   bool   // rewrite as an empty data page
	cutLink bool   // clear the trailing overflow link
	drops   []int  // entry indices to remove (as seen by forEach)
	filter  []byte // a primary's rebuilt filter region (nil: keep it)
}

// recovery is one certifying walk over every bucket chain: recovery's dry
// run, reading the store, or Check, reading the pool.
type recovery struct {
	t       *Table
	store   bool                   // pages come from the store (recovery), not the pool (Check)
	claimed map[oaddr]string       // overflow page -> what references it
	plans   map[uint32]*pageRepair // physical page -> planned repair
	order   []uint32               // deterministic apply order
	repairs int                    // pages with a structural repair (not filter-only)
	why     string                 // the first structural repair's cause
	count   int64
	sum     uint64
	filters int // primary pages whose tag filters applyRecovery rewrote
	bitmaps int // overflow-use bitmaps applyRecovery rebuilt

	// What walkBucket certified of the last bucket it walked: the primary
	// as read (nil if unwritten or reset), the hash of every certified
	// pair, and the overflow pages kept.
	prim   page
	hashes []uint32
	novfl  int

	pbuf, cbuf page // the primary's and the chain pages' reads
}

// newRecovery starts a walk once the bitmap addressing invariants hold,
// as they must before any oaddr can be trusted: each populated split
// point's bitmap is its first page.
func (t *Table) newRecovery(store bool) (*recovery, error) {
	for s := uint32(0); s <= t.hdr.ovflPoint; s++ {
		alloc, bm := t.hdr.allocatedAt(s), t.hdr.bitmaps[s]
		if alloc > 0 && bm != uint16(makeOaddr(s, 1)) {
			return nil, fmt.Errorf("%w: split point %d has %d pages but bitmap address %v", ErrUnrecoverable, s, alloc, oaddr(bm))
		}
		if alloc == 0 && bm != 0 {
			return nil, fmt.Errorf("%w: split point %d has a bitmap but no pages", ErrUnrecoverable, s)
		}
	}
	return &recovery{t: t, store: store, claimed: map[oaddr]string{}, plans: map[uint32]*pageRepair{},
		pbuf: make(page, t.hdr.bsize), cbuf: make(page, t.hdr.bsize)}, nil
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

// repair plans a structural repair of pageno, noting the first cause.
func (r *recovery) repair(pageno uint32, format string, args ...any) *pageRepair {
	if r.why == "" {
		r.why = fmt.Sprintf("page %d: ", pageno) + fmt.Sprintf(format, args...)
	}
	p := r.plan(pageno)
	if !p.reset && !p.cutLink && len(p.drops) == 0 {
		r.repairs++
	}
	return p
}

// linkValid reports whether o addresses a page that existed at the last
// sync, per the header's spares. Anything else is a post-sync pointer.
func (r *recovery) linkValid(o oaddr) bool {
	s, pn := o.split(), o.pagenum()
	return s < maxSplits && s <= r.t.hdr.ovflPoint && pn >= 1 && pn <= r.t.hdr.allocatedAt(s)
}

// readPage copies page a into buf: from the pool, which holds a live
// table's newest pages (owner names the chain whose pool shard caches
// them), or with fromStore straight from the store, as recovery reads
// pages it may yet reject.
func (t *Table) readPage(fromStore bool, a buffer.Addr, owner uint32, buf []byte) error {
	if fromStore {
		return t.store.ReadPage(t.mapPage(a), buf)
	}
	var b *buffer.Buf
	var err error
	if a.Ovfl {
		b, err = t.pool.GetOwned(a, owner, false)
	} else {
		b, err = t.getBucketPage(nil, a.N)
	}
	if err != nil {
		return err
	}
	copy(buf, b.Page)
	t.pool.Put(b)
	return nil
}

// scanResult is what one page contributes if it survives intact. Side
// effects are deferred so a parse failure mid-page commits nothing.
type scanResult struct {
	next   oaddr // trailing overflow link (0 if none)
	count  int64
	sum    uint64
	drops  []int
	why    string         // the first drop's cause
	claims map[oaddr]bool // big-chain pages claimed by entries on this page
}

// recoverLocked dry-runs the walk and the acceptance gate. On success the
// returned recovery holds the verified accounting, the claims and the
// planned repairs, each primary's rebuilt filter among them; nothing has
// been written. The caller holds t.mu.
func (t *Table) recoverLocked() (*recovery, error) {
	r, err := t.newRecovery(true)
	if err != nil {
		return nil, err
	}
	for b := uint32(0); b <= t.hdr.maxBucket; b++ {
		if err := r.walkBucket(b); err != nil {
			return nil, err
		}
		r.planFilter(t.hdr.bucketToPage(b))
	}

	if r.count != t.hdr.nkeys || r.sum != t.hdr.pairSum {
		return nil, fmt.Errorf("%w: pages hold %d pairs (fingerprint %#x); the last sync recorded %d (%#x)",
			ErrUnrecoverable, r.count, r.sum, t.hdr.nkeys, t.hdr.pairSum)
	}
	return r, nil
}

// planFilter plans a rewrite of the filter region of the primary at
// pageno when the one the walk's certified pairs rebuild differs from
// the region as read. Tag filters are pure acceleration state and never
// trusted across a crash: a torn filter write could hide a surviving pair
// (a false-negative hazard) without perturbing the count/fingerprint
// gate, which deliberately ignores the filter bytes. A reset or unwritten
// primary's region is empty already.
func (r *recovery) planFilter(pageno uint32) {
	if r.prim == nil {
		return
	}
	base := r.prim.slotBase()
	pg := r.cbuf
	copy(pg[pageHdrSize:base], r.prim[pageHdrSize:base])
	pg.filterReset()
	for _, h := range r.hashes {
		pg.filterAdd(h)
	}
	pg.setFltChainLen(r.novfl)
	if !bytes.Equal(pg[pageHdrSize:base], r.prim[pageHdrSize:base]) {
		r.plan(pageno).filter = bytes.Clone(pg[pageHdrSize:base])
	}
}

// walkBucket walks one bucket's chain, reading each page once, and
// commits each page that survives intact.
func (r *recovery) walkBucket(b uint32) error {
	t := r.t
	r.prim, r.hashes, r.novfl = nil, r.hashes[:0], 0
	a, buf := t.bucketAddr(b), r.pbuf
	var holder uint32 // the page whose link points at the page under scan
	for hops := 0; ; hops++ {
		pageno := t.mapPage(a)
		if err := t.readPage(r.store, a, b, buf); err != nil {
			if !errors.Is(err, pagefile.ErrNotAllocated) {
				return fmt.Errorf("%w: bucket %d page %d unreadable: %v", ErrUnrecoverable, b, pageno, err)
			}
			if a.Ovfl {
				r.repair(holder, "bucket %d links to unwritten page %v", b, oaddr(a.N)).cutLink = true
			}
			return nil // an unwritten primary is an empty bucket
		}
		res, err := r.scanPage(b, buf)
		if errors.Is(err, errPostSync) {
			// A torn or overwritten page. A chain page is cut at its
			// predecessor; a primary is reset to empty, and any chain
			// behind it stays unclaimed — if that held last-synced pairs
			// the gate rejects the file.
			if a.Ovfl {
				r.repair(holder, "bucket %d overflow page %v: %v", b, oaddr(a.N), err).cutLink = true
			} else {
				r.repair(pageno, "bucket %d primary: %v", b, err).reset = true
			}
			return nil
		}
		if err != nil {
			return err
		}
		if a.Ovfl {
			r.claimed[oaddr(a.N)] = fmt.Sprintf("bucket %d's chain", b)
			r.novfl++
		} else {
			r.prim = buf
		}
		r.count += res.count
		r.sum ^= res.sum
		if len(res.drops) > 0 {
			p := r.repair(pageno, "%s", res.why)
			p.drops = append(p.drops, res.drops...)
		}
		for o := range res.claims {
			r.claimed[o] = fmt.Sprintf("big pair via page %d", pageno)
		}

		next := res.next
		switch _, dup := r.claimed[next]; {
		case next == 0:
			return nil
		case hops >= 1<<16:
			return fmt.Errorf("%w: bucket %d chain exceeds 65536 pages", ErrUnrecoverable, b)
		case !r.linkValid(next):
			r.repair(pageno, "bucket %d links to unallocated page %v", b, next).cutLink = true
			return nil
		case dup:
			return fmt.Errorf("%w: overflow page %v claimed by both %s and bucket %d's chain", ErrUnrecoverable, next, r.claimed[next], b)
		}
		holder, a, buf = pageno, ovflBufAddr(next), r.cbuf
	}
}

// scanPage validates one chain page and computes its contribution,
// appending each certified pair's hash to r.hashes. It returns
// errPostSync (wrapped) when the page itself cannot be part of the
// last-synced state and the caller should reset or cut it.
func (r *recovery) scanPage(b uint32, pg page) (scanResult, error) {
	t := r.t
	res := scanResult{claims: map[oaddr]bool{}}
	var inner error
	hashes := len(r.hashes)
	drop := func(i int, format string, args ...any) {
		if res.drops = append(res.drops, i); res.why == "" {
			res.why = fmt.Sprintf("bucket %d: ", b) + fmt.Sprintf(format, args...)
		}
	}
	ferr := pg.forEach(func(i int, e entry) bool {
		key, data := e.key, e.data
		var pages []oaddr
		if e.kind == entryBig {
			var err error
			if key, data, pages, err = r.bigPair(e.ref, res.claims); errors.Is(err, errPostSync) {
				drop(i, "big pair at %v: %v", e.ref, err)
				return true
			} else if err != nil {
				inner = err
				return false
			}
		}
		h := t.hash(key)
		if want := t.calcBucket(h); want != b {
			// Hashes elsewhere under the last-synced masks: a post-sync
			// insert under grown masks. Drop candidate.
			drop(i, "key %q hashes to bucket %d", truncKey(key), want)
			return true
		}
		for _, o := range pages {
			res.claims[o] = true
		}
		r.hashes = append(r.hashes, h)
		res.count++
		res.sum ^= pairHash(key, data)
		return true
	})
	if ferr != nil || inner != nil {
		r.hashes = r.hashes[:hashes]
	}
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

// bigPair reads the big pair at ref through the chain reader. A chain
// that cannot have been whole at the last sync — a page beyond the
// synced allocation or never written, a cycle, a page that is not a
// chain page, a payload shorter than its lengths — returns errPostSync:
// its reference is a drop candidate. A page claimed elsewhere is
// ErrUnrecoverable.
func (r *recovery) bigPair(ref oaddr, pending map[oaddr]bool) (key, data []byte, pages []oaddr, err error) {
	var payload []byte
	local := map[oaddr]bool{}
	klen, _, err := r.t.readChain(ref, &chainRead{store: r.store, part: bigPairPart,
		visit: func(o oaddr) error {
			if !r.linkValid(o) || local[o] {
				return fmt.Errorf("%w: chain page %v unallocated or repeated", errPostSync, o)
			}
			if prev, dup := r.claimed[o]; dup {
				return fmt.Errorf("%w: overflow page %v claimed by both %s and the big chain at %v", ErrUnrecoverable, o, prev, ref)
			}
			if pending[o] {
				return fmt.Errorf("%w: overflow page %v claimed by two big chains on one page", ErrUnrecoverable, o)
			}
			local[o] = true
			pages = append(pages, o)
			return nil
		},
		fn: func(b []byte) bool { payload = append(payload, b...); return true }})
	switch {
	case err == nil:
		return payload[:klen], payload[klen:], pages, nil
	case errors.Is(err, ErrUnrecoverable), errors.Is(err, errPostSync):
		return nil, nil, nil, err
	case errors.Is(err, ErrCorrupt), errors.Is(err, pagefile.ErrNotAllocated):
		return nil, nil, nil, fmt.Errorf("%w: %v", errPostSync, err)
	}
	return nil, nil, nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
}

// claimedBitmaps builds the overflow-use bitmaps the walk's claims
// imply: at each populated split point its bitmap page and every claimed
// page are in use, and nothing else. Recovery installs them; Check
// compares them with the table's.
func (t *Table) claimedBitmaps(claimed map[oaddr]string) ([maxSplits][]byte, error) {
	var bms [maxSplits][]byte
	for s := uint32(0); s <= t.hdr.ovflPoint; s++ {
		if t.hdr.bitmaps[s] != 0 {
			bms[s] = make([]byte, t.hdr.bsize)
			le.PutUint16(bms[s][0:2], bitmapMagic)
			bitmapSet(bms[s], 0) // the bitmap page itself
		}
	}
	for o := range claimed {
		bm := bms[o.split()]
		if bm == nil {
			return bms, fmt.Errorf("%w: claimed page %v at split point without a bitmap", ErrCorrupt, o)
		}
		bitmapSet(bm, o.pagenum()-1)
	}
	return bms, nil
}

// applyRecovery writes the planned repairs and rebuilt filter regions,
// installs the overflow-use bitmaps rebuilt from reachability, and stamps
// the file clean with a two-phase sync. The caller holds t.mu and the
// gate has passed. The header stays dirty until syncLocked, so a crash
// mid-repair re-runs recovery, which converges.
func (t *Table) applyRecovery(r *recovery) error {
	buf := make(page, t.hdr.bsize)
	for _, pageno := range r.order {
		p := r.plans[pageno]
		if p.reset {
			clear(buf)
			initPage(buf)
		} else if err := t.store.ReadPage(pageno, buf); err != nil {
			return err
		}
		sort.Sort(sort.Reverse(sort.IntSlice(p.drops)))
		for _, i := range p.drops {
			if err := buf.removeEntry(i); err != nil {
				return err
			}
		}
		if p.cutLink {
			buf.clearOvflLink()
		}
		if p.filter != nil {
			copy(buf[pageHdrSize:], p.filter)
			r.filters++
		}
		if err := t.store.WritePage(pageno, buf); err != nil {
			return err
		}
	}
	t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepRepairs, uint64(r.repairs), 0, 0)

	// Every bitmap comes from the claim map: a bit is set for the bitmap
	// page itself and for each page a verified chain reaches. Everything
	// else at that split point is free for reuse.
	bms, err := t.claimedBitmaps(r.claimed)
	if err != nil {
		return err
	}
	for s, bm := range bms {
		t.bitmapBuf[s], t.bitmapDirty[s], t.freeCount[s] = bm, bm != nil, 0
		if bm != nil {
			r.bitmaps++
			for pn := uint32(1); pn <= t.hdr.allocatedAt(uint32(s)); pn++ {
				if !bitmapGet(bm, pn-1) {
					t.freeCount[s]++
					t.punch[s] = true
				}
			}
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
	t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepBitmaps, uint64(r.bitmaps), 0, 0)
	t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepFilters, uint64(r.filters), 0, 0)
	if err := t.syncLocked(); err != nil {
		return err
	}
	t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepDone, uint64(t.hdr.nkeys), t.hdr.syncEpoch, 0)
	return nil
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
		t.tr.Emit(trace.EvRecoveryStep, trace.RecoveryStepGate, uint64(r.count), uint64(r.repairs), 0)
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
	rep.BitmapsRebuilt, rep.FiltersRebuilt = r.bitmaps, r.filters
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
