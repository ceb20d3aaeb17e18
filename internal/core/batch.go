package core

import (
	"bytes"
	"cmp"
	"slices"
	"sync"

	"unixhash/internal/oplog"
	"unixhash/internal/trace"
)

// The write path. Every mutation of a bucket chain on behalf of a caller
// is a write set — puts and deletes that become visible as a unit — and
// there is one way to apply one: applySet write-latches the stripes the
// set touches, in ascending order, and hands each bucket's ops to
// applyBucket, which walks that chain exactly once. Put, PutNew and
// Delete are a set of one; PutBatch is a set of puts; a committed
// transaction (txn.go) is the same call with an LSN stamped after it.
// The split work a set earns is settled afterwards, with the latches
// released, by the latched splitter in latch.go. The table lock
// is held shared throughout: the only exclusive step on the write path is
// PutBatch presizing an empty table, released before any pair is applied.
// See DESIGN.md §7 and §10.

// Pair is one key/data pair for batched insertion.
type Pair struct {
	Key  []byte
	Data []byte
}

// PutBatch stores every pair with Put (replace) semantics. The whole
// batch is applied in one latch epoch over the stripes it touches:
// concurrent readers observe either none or all of it, and readers of
// other stripes are not delayed. When a key appears more than once in
// the batch the last occurrence wins, matching the sequential-Put
// outcome. An empty key anywhere in the batch rejects the entire batch
// with ErrEmptyKey before anything is written.
func (t *Table) PutBatch(pairs []Pair) error { return t.PutBatchOp(nil, pairs) }

// PutBatchOp is PutBatch with an op ledger: the stripe-latch wait, the
// split pass and the pool traffic of the bucket passes are charged to
// led.
func (t *Table) PutBatchOp(led *oplog.Ledger, pairs []Pair) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkWritable(); err != nil {
		return err
	}
	for i := range pairs {
		if len(pairs[i].Key) == 0 {
			return ErrEmptyKey
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	t.tr.Emit(trace.EvBatchBegin, uint64(len(pairs)), 0, 0, 0)
	if t.nkeysA.Load() == 0 {
		// Presize moves the geometry without a split to publish it, so it
		// alone needs every bucket operation quiesced. The window between
		// the two lock holds is harmless: presize re-checks emptiness, and
		// the table may have been closed in it.
		t.mu.RUnlock()
		err := t.presize(len(pairs))
		t.mu.RLock()
		if err == nil {
			err = t.checkWritable()
		}
		if err != nil {
			return err
		}
	}

	sp := writeSet(len(pairs))
	for i := range pairs {
		(*sp)[i] = writeOp{key: pairs[i].Key, data: pairs[i].Data}
	}
	buckets, err := t.applySet(*sp, true, led)
	releaseWriteSet(sp)
	if err != nil {
		return err
	}
	t.tr.Emit(trace.EvBatchPhase, trace.BatchPhaseDistribute, uint64(buckets), 0, 0)
	splits, err := t.settleSplits(led)
	if err != nil {
		return err
	}
	t.tr.Emit(trace.EvBatchPhase, trace.BatchPhaseSplits, uint64(splits), 0, 0)

	// Amortized accounting: one batch, len(pairs) logical puts.
	t.n.puts.Add(int64(len(pairs)))
	t.n.batchPairs.Add(int64(len(pairs)))
	t.tr.Emit(trace.EvBatchEnd, uint64(len(pairs)), uint64(splits), 0, 0)
	return nil
}

// opsPool recycles the write sets of batches and commits, so neither
// allocates one: writeSet takes a set of n ops, releaseWriteSet returns it.
var opsPool = sync.Pool{New: func() any { return new([]writeOp) }}

func writeSet(n int) *[]writeOp {
	sp := opsPool.Get().(*[]writeOp)
	*sp = slices.Grow((*sp)[:0], n)[:n]
	return sp
}

func releaseWriteSet(sp *[]writeOp) {
	clear(*sp) // the pool keeps no caller's bytes
	*sp = (*sp)[:0]
	opsPool.Put(sp)
}

// presize expands an empty table's geometry straight to the bucket
// count that storing n keys at the configured fill factor implies — the
// computation initHeader performs for Options.Nelem — so no pair of the
// batch is ever placed in a bucket a later split would move it out of.
// With no keys there is nothing to redistribute, so only the header
// changes: masks, maxBucket and the overflow split point advance together
// (carrying the cumulative spares count forward across skipped
// generations, exactly as growGeometry does), preserving every existing
// overflow page address. A table that has keys, or is already that
// large, is left alone.
func (t *Table) presize(n int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkWritable(); err != nil {
		return err
	}
	want := nextPow2(uint32((int64(n) + int64(t.hdr.ffactor) - 1) / int64(t.hdr.ffactor)))
	if t.nkeysA.Load() != 0 || want <= t.hdr.maxBucket+1 {
		return nil
	}
	if err := t.markDirty(); err != nil {
		return err
	}
	t.hdr.maxBucket = want - 1
	t.hdr.lowMask = want - 1
	t.hdr.highMask = want<<1 - 1
	if newPoint := ceilLog2(want); newPoint > t.hdr.ovflPoint {
		for s := t.hdr.ovflPoint + 1; s <= newPoint; s++ {
			t.hdr.spares[s] = t.hdr.spares[t.hdr.ovflPoint]
		}
		t.hdr.ovflPoint = newPoint
	}
	t.publishGeo()
	t.dirtyHdr.Store(true)
	t.tr.Emit(trace.EvBatchPhase, trace.BatchPhasePresize, uint64(want), 0, 0)
	return nil
}

// writeOp is one element of a write set: a put of key → data, or a
// delete of key.
type writeOp struct {
	key, data []byte
	hash      uint32
	bucket    uint32
	seq       int32 // position in the caller's set: the last op on a key wins
	ref       oaddr // put of a big pair: its chain, written before the latches are taken
	del       bool
	dead      bool // superseded by a later op on the same key
	found     bool // the copy that predates the set was on the chain and is removed
	absent    bool // the primary's filter proves no copy predates the set
	placed    bool // put: the new copy is on a page
}

// fits reports whether the put's new copy — a big pair's ref, or the pair
// itself — can be added to pg.
func (op *writeOp) fits(pg page) bool {
	if op.ref != 0 {
		return pg.fitsRef()
	}
	return pg.fitsRegular(len(op.key), len(op.data))
}

// addTo adds the put's new copy to pg; the caller has checked fits.
func (op *writeOp) addTo(pg page) {
	if op.ref != 0 {
		pg.addRef(op.ref)
	} else {
		pg.addRegular(op.key, op.data)
	}
}

// applySet applies ops to the live table as one unit and reports how
// many buckets it touched. Big-pair chains are written first, outside
// any latch (they are private until their ref lands, so chain I/O never
// extends a latch hold); then every involved stripe is write-latched in
// ascending order, the routes are revalidated against the split pointer,
// and each bucket's ops are applied in one pass over its chain. A route
// invalidated by a concurrent split backs off and retries — lockBucket's
// protocol extended to a set of buckets. replace is false only for
// PutNew. The caller holds t.mu shared; ops is reordered, and on return
// each op's found/placed say what happened to it.
// On error the set may be partly applied.
func (t *Table) applySet(ops []writeOp, replace bool, led *oplog.Ledger) (buckets int, err error) {
	for i := range ops {
		ops[i].hash, ops[i].seq = t.hash(ops[i].key), int32(i)
	}
	defer func() {
		if err == nil {
			return
		}
		// Chains whose ref never landed are unreachable; reclaim them.
		for i := range ops {
			if ops[i].ref != 0 && !ops[i].placed {
				_ = t.freeBigChain(ops[i].ref)
			}
		}
	}()
	for {
		geo := t.geo.Load()
		var stripes stripeSet
		for i := range ops {
			ops[i].bucket = routeBucket(ops[i].hash, geo)
			stripes.add(ops[i].bucket)
		}
		if len(ops) > 1 {
			// Bucket order keeps each bucket's ops together and the passes
			// in ascending file order; hash order within a bucket puts the
			// ops on one key side by side and lets a large group be
			// searched by hash.
			slices.SortFunc(ops, func(a, b writeOp) int {
				if a.bucket != b.bucket {
					return cmp.Compare(a.bucket, b.bucket)
				}
				if a.hash != b.hash {
					return cmp.Compare(a.hash, b.hash)
				}
				return cmp.Compare(a.seq, b.seq)
			})
			for i := len(ops) - 2; i >= 0; i-- {
				for j := i + 1; j < len(ops) && ops[j].hash == ops[i].hash; j++ {
					if !ops[j].dead && bytes.Equal(ops[j].key, ops[i].key) {
						ops[i].dead = true
						break
					}
				}
			}
		}
		for i := range ops {
			op := &ops[i]
			if !op.del && !op.dead && op.ref == 0 && t.isBig(len(op.key), len(op.data)) {
				// The file is durably marked dirty before the chain's
				// writes can reach the store.
				if err = t.markDirty(); err != nil {
					return 0, err
				}
				if op.ref, err = t.putBigPair(op.key, op.data); err != nil {
					return 0, err
				}
			}
		}

		t.latchStripes(stripes, true, led)
		// Revalidate under the latches: a split may have moved a route.
		stale := false
		for i := range ops {
			if routeBucket(ops[i].hash, t.geo.Load()) != ops[i].bucket {
				stale = true
				break
			}
		}
		if stale {
			t.latchStripes(stripes, false, nil)
			continue
		}
		for lo := 0; lo < len(ops) && err == nil; buckets++ {
			hi := lo + 1
			for hi < len(ops) && ops[hi].bucket == ops[lo].bucket {
				hi++
			}
			err = t.applyBucket(ops[lo:hi], replace, led)
			lo = hi
		}
		t.dirtyHdr.Store(true)
		t.latchStripes(stripes, false, nil)
		return buckets, err
	}
}

// settleSplits runs the hybrid split policy once a write set has
// unlatched — each split takes its own pair of latches — and reports the
// splits it performed: one uncontrolled split if the set grew an overflow
// chain, then fill-factor splits until the trigger clears or another
// writer's split is in flight (that writer, or the next, carries on:
// the controlled trigger re-fires while nkeys stays high).
func (t *Table) settleSplits(led *oplog.Ledger) (splits int, err error) {
	var st int64
	uncontrolled := t.addedOvfl.Swap(false) && !t.controlledOnly
	for uncontrolled || t.nkeysA.Load() > int64(t.hdr.ffactor)*int64(t.geo.Load()+1) {
		if led != nil && splits == 0 {
			st = oplog.Clock()
		}
		ran, err := t.maybeExpand(uncontrolled)
		if err != nil {
			return splits, err
		}
		if !ran {
			break
		}
		splits++
		uncontrolled = false
	}
	if led != nil && splits > 0 {
		led.Since(oplog.PhaseSplitAssist, st)
	}
	return splits, nil
}

// DefaultBatchSize is the chunk size for callers that split a stream of
// puts into PutBatch calls: dbcli load's chunks and the server's write
// coalescer. One chunk is one latch epoch and one deferred-split pass.
const DefaultBatchSize = 4096
