package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unixhash/internal/buffer"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
	"unixhash/internal/trace"
)

// TestRouteBucketMatchesCalc pins the identity routeBucket relies on:
// routing over the split pointer alone agrees with the stored-mask
// calcBucket in every state the header can be in — both the states
// expansion reaches (lowMask = highMask>>1) and the freshly initialized
// state (maxBucket = 2^k-1 with masks one generation wider).
func TestRouteBucketMatchesCalc(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hashes := make([]uint32, 200)
	for i := range hashes {
		hashes[i] = rng.Uint32()
	}
	ref := func(h, maxB, high, low uint32) uint32 {
		b := h & high
		if b > maxB {
			b = h & low
		}
		return b
	}
	// Expansion-reachable states.
	for maxB := uint32(1); maxB <= 4097; maxB++ {
		high := uint32(1)<<len32(maxB) - 1
		low := high >> 1
		for _, h := range hashes {
			if got, want := routeBucket(h, maxB), ref(h, maxB, high, low); got != want {
				t.Fatalf("maxBucket=%d h=%#x: routeBucket=%d calcBucket=%d", maxB, h, got, want)
			}
		}
	}
	// Freshly initialized states: maxBucket = 2^k-1, stored masks one
	// generation wider than the derived ones.
	for k := uint32(0); k < 16; k++ {
		maxB := uint32(1)<<k - 1
		low := maxB
		high := uint32(1)<<(k+1) - 1
		for _, h := range hashes {
			if got, want := routeBucket(h, maxB), ref(h, maxB, high, low); got != want {
				t.Fatalf("init k=%d h=%#x: routeBucket=%d calcBucket=%d", k, h, got, want)
			}
		}
	}
	// And against a live table through a run of real expansions.
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	defer tbl.Close()
	for i := 0; i < 600; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		if i%37 == 0 {
			h := rng.Uint32()
			if got, want := routeBucket(h, tbl.geo.Load()), tbl.calcBucket(h); got != want {
				t.Fatalf("live table at %d keys, h=%#x: routeBucket=%d calcBucket=%d", i, h, got, want)
			}
		}
	}
}

func len32(x uint32) int {
	n := 0
	for x != 0 {
		x >>= 1
		n++
	}
	return n
}

// TestSplitStormConcurrentOps is the tentpole -race stress: several
// writers insert disjoint key ranges fast enough to force a continuous
// split storm while deleters and readers interleave on the same buckets.
// Afterwards every surviving key must read back exactly, the structural
// Check must pass, and the trace ring must show balanced split begin/end
// events — splits ran to completion under concurrent traffic.
func TestSplitStormConcurrentOps(t *testing.T) {
	tr := trace.New(1 << 15)
	tbl := mustOpen(t, "", &Options{
		Bsize:     256,
		Ffactor:   4, // splits early and often
		CacheSize: 64 * 1024,
		Trace:     tr,
		WAL:       true, // for the committer
	})
	defer tbl.Close()

	const (
		writers   = 4
		perWriter = 2500
		churn     = 200
		batches   = 120 // PutBatch calls of batchLen fresh pairs each
		batchLen  = 32
		txns      = 300 // commits over a small key range, puts and deletes mixed
		txnKeys   = 150
	)
	wkey := func(w, i int) []byte { return []byte(fmt.Sprintf("storm-%d-%05d", w, i)) }
	wval := func(w, i int) []byte { return []byte(fmt.Sprintf("v-%d-%d", w, i)) }
	ckey := func(i int) []byte { return []byte(fmt.Sprintf("churn-%03d", i)) }

	for i := 0; i < churn; i++ {
		if err := tbl.Put(ckey(i), []byte("c0")); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+6)

	// Writers: disjoint ranges, so every insert is a fresh key and the
	// fill-factor trigger fires continuously.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := tbl.Put(wkey(w, i), wval(w, i)); err != nil {
					errs <- fmt.Errorf("writer %d put %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	// The set-level driver under live splits: a PutBatch writer and a
	// committer latch many stripes at once, so their back-off and retry
	// races the single-op writers' splits (and each other's).
	bkey := func(i int) []byte { return []byte(fmt.Sprintf("batch-%05d", i)) }
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			pairs := make([]Pair, 0, batchLen+1)
			for i := b * batchLen; i < (b+1)*batchLen; i++ {
				pairs = append(pairs, Pair{Key: bkey(i), Data: wval(9, i)})
			}
			// A duplicate inside the batch: the last occurrence wins.
			pairs = append([]Pair{{Key: bkey(b * batchLen), Data: []byte("superseded")}}, pairs...)
			if err := tbl.PutBatch(pairs); err != nil {
				errs <- fmt.Errorf("batch %d: %w", b, err)
				return
			}
		}
	}()
	tkey := func(i int) []byte { return []byte(fmt.Sprintf("txn-%03d", i)) }
	txnModel := map[string]string{} // the one committer's view: sequential, so exact
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for n := 0; n < txns; n++ {
			x, err := tbl.Begin()
			if err != nil {
				errs <- fmt.Errorf("begin %d: %w", n, err)
				return
			}
			for j := 0; j < 1+rng.Intn(12); j++ {
				k := tkey(rng.Intn(txnKeys))
				if rng.Intn(3) == 0 {
					err = x.Delete(k)
					delete(txnModel, string(k))
				} else {
					v := fmt.Sprintf("t%d-%d", n, j)
					err = x.Put(k, []byte(v))
					txnModel[string(k)] = v
				}
				if err != nil {
					errs <- fmt.Errorf("txn %d op: %w", n, err)
					return
				}
			}
			if err := x.Commit(); err != nil {
				errs <- fmt.Errorf("commit %d: %w", n, err)
				return
			}
		}
	}()

	// Deleter/re-inserter over the churn keys: Delete and Put race the
	// splits the writers force.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 4000; i++ {
			k := ckey(rng.Intn(churn))
			if rng.Intn(2) == 0 {
				if err := tbl.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("deleter: %w", err)
					return
				}
			} else {
				if err := tbl.Put(k, []byte(fmt.Sprintf("c%d", i))); err != nil {
					errs <- fmt.Errorf("deleter put: %w", err)
					return
				}
			}
		}
	}()

	// Readers: writers' keys must be exact once written; churn keys may
	// be absent but never torn.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			dst := make([]byte, 0, 64)
			for i := 0; i < 6000; i++ {
				if rng.Intn(3) == 0 {
					k := ckey(rng.Intn(churn))
					v, err := tbl.Get(k)
					switch {
					case errors.Is(err, ErrNotFound):
					case err != nil:
						errs <- fmt.Errorf("reader %d churn: %w", r, err)
						return
					case v[0] != 'c':
						errs <- fmt.Errorf("reader %d churn: torn value %q", r, v)
						return
					}
				} else {
					w, i := rng.Intn(writers), rng.Intn(perWriter)
					var err error
					dst, err = tbl.GetBuf(wkey(w, i), dst)
					if errors.Is(err, ErrNotFound) {
						continue // not written yet
					}
					if err != nil {
						errs <- fmt.Errorf("reader %d: %w", r, err)
						return
					}
					if !bytes.Equal(dst, wval(w, i)) {
						errs <- fmt.Errorf("reader %d: key %d-%d: got %q", r, w, i, dst)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Every written key must be intact.
	dst := make([]byte, 0, 64)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			var err error
			dst, err = tbl.GetBuf(wkey(w, i), dst)
			if err != nil {
				t.Fatalf("after storm: key %d-%d: %v", w, i, err)
			}
			if !bytes.Equal(dst, wval(w, i)) {
				t.Fatalf("after storm: key %d-%d: got %q", w, i, dst)
			}
		}
	}
	for i := 0; i < batches*batchLen; i++ {
		if got, err := tbl.Get(bkey(i)); err != nil || !bytes.Equal(got, wval(9, i)) {
			t.Fatalf("after storm: batch key %d = %q, %v", i, got, err)
		}
	}
	for i := 0; i < txnKeys; i++ {
		got, err := tbl.Get(tkey(i))
		if want, ok := txnModel[string(tkey(i))]; ok {
			if err != nil || string(got) != want {
				t.Fatalf("after storm: txn key %d = %q, %v; want %q", i, got, err, want)
			}
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("after storm: deleted txn key %d = %q, %v", i, got, err)
		}
	}
	if want := writers*perWriter + batches*batchLen + len(txnModel); tbl.Len() < want || tbl.Len() > want+churn {
		t.Fatalf("after storm: Len = %d, want %d plus at most %d churn keys", tbl.Len(), want, churn)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("table corrupt after split storm: %v", err)
	}

	// The ring overwrites oldest-first, so an end whose begin was
	// evicted is benign — but a begin with no later end means a split
	// never finished. Replay the surviving window in sequence order:
	// the open-split balance must return to zero.
	begins := tr.Events(0, trace.EvSplitBegin)
	ends := tr.Events(0, trace.EvSplitEnd)
	if len(begins) == 0 {
		t.Fatal("split storm produced no splits")
	}
	marks := append(append([]trace.Event{}, begins...), ends...)
	sort.Slice(marks, func(i, j int) bool { return marks[i].Seq < marks[j].Seq })
	open := 0
	for _, e := range marks {
		if e.Type == trace.EvSplitBegin {
			open++
		} else if open > 0 {
			open-- // an end with no begin in the window: begin evicted
		}
	}
	if open != 0 {
		t.Fatalf("unbalanced splits: %d begins never ended (%d begins, %d ends in window)",
			open, len(begins), len(ends))
	}
	t.Logf("storm: %d splits in the ring's window", len(begins))
}

// TestCrashMidSplit power-cuts a table in the middle of a split storm:
// after one completed sync, a burst of inserts forces a run of splits
// whose page writes stream into the crash journal
// via evictions (the cache is tiny). Every prefix cut inside that storm
// must recover to exactly the synced state — a half-moved bucket never
// leaks into what Recover accepts.
func TestCrashMidSplit(t *testing.T) {
	cs := pagefile.NewCrash(pagefile.NewMem(128, pagefile.CostModel{}))
	// CacheSize of a few pages: split page writes reach the journal
	// immediately through eviction, so prefixes cut mid-split.
	tbl := mustOpen(t, "", &Options{Store: cs, Bsize: 128, Ffactor: 4, CacheSize: 1024})

	model := map[string]string{}
	for i := 0; i < 80; i++ {
		k, v := key(i), val(i)
		if err := tbl.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[string(k)] = string(v)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	syncLen := cs.Len()
	epoch := tbl.Geometry().SyncEpoch
	splitsBefore := splitCount(t, tbl)

	// The storm: unsynced inserts that force splits.
	for i := 80; i < 200; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := splitCount(t, tbl) - splitsBefore; got == 0 {
		t.Fatal("storm forced no splits; test is vacuous")
	}
	events := cs.Len()
	if events == syncLen {
		t.Fatal("storm wrote no pages; shrink the cache")
	}
	// Abandon the table without Close: the power cut.

	// The contract, prefix by prefix: Recover either reproduces exactly
	// the synced 80-key state, or fails loudly (ErrUnrecoverable for a
	// state whose post-sync writes are not provably discardable). It
	// never silently lands anywhere else — a half-moved bucket cannot
	// pass the (nkeys, pairSum) gate. The prefix cut exactly at the sync
	// must recover.
	recovered, loud := 0, 0
	for n := syncLen; n <= events; n++ {
		ms, err := cs.Materialize(n, 0)
		if err != nil {
			t.Fatalf("materialize(%d): %v", n, err)
		}
		rt, rep, err := Recover("", &Options{Store: ms, Bsize: 128, Ffactor: 4})
		if err != nil {
			if n == syncLen {
				t.Fatalf("prefix exactly at sync: recover failed: %v", err)
			}
			if !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("prefix %d: unexpected recover error: %v", n, err)
			}
			loud++
			continue
		}
		recovered++
		got := readAll(t, rt)
		if !mapsEqual(got, model) {
			rt.Close()
			t.Fatalf("prefix %d: recovered %d keys, want the %d-key synced state (report %+v)",
				n, len(got), len(model), rep)
		}
		if rep.SyncEpoch < epoch {
			rt.Close()
			t.Fatalf("prefix %d: epoch went backwards: %d < %d", n, rep.SyncEpoch, epoch)
		}
		if err := rt.Check(); err != nil {
			rt.Close()
			t.Fatalf("prefix %d: post-recovery check: %v", n, err)
		}
		rt.Close()
	}
	t.Logf("mid-split storm: %d prefixes, %d recovered to the synced state, %d failed loud",
		events-syncLen+1, recovered, loud)
}

// TestLatchWaitOnlyWhenContended: the op ledger's latch phase is the
// time a stripe latch actually waited. An uncontended Get or Put charges
// nothing (its try-lock succeeds, and no clock is read); a Get queued
// behind a writer holding the stripe, and a Put queued behind a reader,
// each charge one latch wait.
func TestLatchWaitOnlyWhenContended(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 16})
	defer tbl.Close()
	key := []byte("latched-key")
	if err := tbl.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	stripe := tbl.stripeFor(routeBucket(tbl.hash(key), tbl.geo.Load()))

	for _, tc := range []struct {
		name     string
		op       func(led *oplog.Ledger) error
		lock     func()
		unlock   func()
		contends bool
	}{
		{"get/uncontended", func(led *oplog.Ledger) error { _, err := tbl.GetBufOp(led, key, nil); return err }, nil, nil, false},
		{"put/uncontended", func(led *oplog.Ledger) error { return tbl.PutOp(led, key, []byte("v")) }, nil, nil, false},
		{"get/behind-writer", func(led *oplog.Ledger) error { _, err := tbl.GetBufOp(led, key, nil); return err }, stripe.Lock, stripe.Unlock, true},
		{"put/behind-reader", func(led *oplog.Ledger) error { return tbl.PutOp(led, key, []byte("v")) }, stripe.RLock, stripe.RUnlock, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var led oplog.Ledger
			led.StartOp(oplog.CmdGet, key)
			if !tc.contends {
				if err := tc.op(&led); err != nil {
					t.Fatal(err)
				}
			} else {
				tc.lock()
				done := make(chan error)
				go func() { done <- tc.op(&led) }()
				waitQueuedOnLatch(t)
				tc.unlock()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			n, ns := led.PhaseCount(oplog.PhaseLatchWait), led.PhaseNS(oplog.PhaseLatchWait)
			switch {
			case !tc.contends && n != 0:
				t.Fatalf("uncontended latch charged %d waits (%dns)", n, ns)
			case tc.contends && (n != 1 || ns <= 0):
				t.Fatalf("contended latch charged %d waits of %dns total, want 1", n, ns)
			}
		})
	}
}

// TestSplitWaitIsLatchWait parks a split twice — in the store read of its
// old bucket's primary page while it gathers, and in the read of a big
// pair's chain while it places the pairs — and issues a Get, with a live
// ledger, for a key in that bucket. The split holds the bucket's stripe
// from before it publishes the new geometry until its last pair has
// moved, so the Get waits exactly as it would behind any writer: one
// latch_wait covering both parks, the split's end event inside the Get's
// trace span, the right value afterwards, and phases that sum to the
// elapsed time.
func TestSplitWaitIsLatchWait(t *testing.T) {
	type park struct {
		page            int64
		parked, release chan struct{}
	}
	var parks [2]park
	for i := range parks {
		parks[i] = park{page: -1, parked: make(chan struct{}), release: make(chan struct{})}
	}
	var armed atomic.Bool
	var next atomic.Int32 // parks[next] is the read that parks next
	store := &hookStore{Store: pagefile.NewMem(256, pagefile.CostModel{}), onRead: func(pageno uint32) {
		if !armed.Load() {
			return
		}
		if i := next.Load(); i < int32(len(parks)) && int64(pageno) == parks[i].page && next.CompareAndSwap(i, i+1) {
			close(parks[i].parked)
			<-parks[i].release
		}
	}}
	const ffactor = 4
	tr := trace.New(1 << 12)
	tbl := mustOpen(t, "", &Options{Store: store, Bsize: 256, Ffactor: ffactor,
		CacheSize: 8 * 256, ControlledOnly: true, Trace: tr})
	defer tbl.Close()

	// Fill to the brink: one more fresh key trips exactly one fill-factor
	// split (no uncontrolled splits), of old into maxBucket+1.
	n := 0
	for ; n < 8*ffactor || tbl.nkeysA.Load() != ffactor*int64(tbl.geo.Load()+1); n++ {
		if err := tbl.Put(key(n), val(n)); err != nil {
			t.Fatal(err)
		}
	}
	maxB := tbl.geo.Load()
	oldB := (maxB + 1) & tbl.hdr.lowMask
	readKey, bigKey := -1, -1
	for i := 0; i < n; i++ {
		switch h := tbl.hash(key(i)); {
		case routeBucket(h, maxB) != oldB:
		case readKey < 0 && routeBucket(h, maxB+1) == oldB:
			readKey = i
		case bigKey < 0:
			bigKey = i
		}
	}
	if readKey < 0 || bigKey < 0 {
		t.Fatalf("bucket %d lacks a key that stays (%d) or a second key (%d)", oldB, readKey, bigKey)
	}
	trigger := n
	for ; routeBucket(tbl.hash(key(trigger)), maxB) == oldB; trigger++ {
	}
	// A replace keeps nkeys: the second key becomes a big pair, whose
	// chain the split reads back to route it.
	if err := tbl.Put(key(bigKey), bytes.Repeat([]byte{'B'}, 600)); err != nil {
		t.Fatal(err)
	}
	var ref oaddr
	if err := tbl.walkChain(nil, oldB, func(b *buffer.Buf) (bool, error) {
		return false, page(b.Page).forEach(func(_ int, e entry) bool {
			if e.kind == entryBig {
				ref = e.ref
			}
			return true
		})
	}); err != nil || ref == 0 {
		t.Fatalf("no big pair in bucket %d: %v", oldB, err)
	}

	// Neither page is resident: the split's reads are the first.
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.pool.InvalidateAll(); err != nil {
		t.Fatal(err)
	}
	parks[0].page = int64(tbl.hdr.bucketToPage(oldB))
	parks[1].page = int64(tbl.hdr.oaddrToPage(ref))
	armed.Store(true)
	putDone := make(chan error, 1)
	go func() { putDone <- tbl.Put(key(trigger), val(trigger)) }()
	<-parks[0].parked

	var led oplog.Ledger
	led.StartOp(oplog.CmdGet, key(readKey))
	type result struct {
		v   []byte
		err error
	}
	getDone := make(chan result, 1)
	go func() {
		v, err := tbl.GetBufOp(&led, key(readKey), nil)
		getDone <- result{v, err}
	}()
	waitQueuedOnLatch(t)
	t0 := time.Now()
	for i := range parks {
		<-parks[i].parked
		time.Sleep(20 * time.Millisecond)
		close(parks[i].release)
	}
	parkedFor := time.Since(t0)
	if err := <-putDone; err != nil {
		t.Fatalf("split-triggering Put: %v", err)
	}
	r := <-getDone
	led.Finish()

	if r.err != nil || !bytes.Equal(r.v, val(readKey)) {
		t.Fatalf("Get beside the split = %q, %v; want %q", r.v, r.err, val(readKey))
	}
	if tbl.geo.Load() != maxB+1 {
		t.Fatalf("maxBucket = %d after the trigger, want %d", tbl.geo.Load(), maxB+1)
	}
	if n, ns := led.PhaseCount(oplog.PhaseLatchWait), time.Duration(led.PhaseNS(oplog.PhaseLatchWait)); n != 1 || ns < parkedFor {
		t.Fatalf("latch_wait charged %d waits of %v, want 1 of at least the %v parked", n, ns, parkedFor)
	}
	seq0, seq1 := led.TraceSpan()
	ends := 0
	for _, e := range tr.Ring().Range(seq0, seq1) {
		if e.Type == trace.EvSplitEnd && uint32(e.Args[0]) == oldB && uint32(e.Args[1]) == maxB+1 {
			ends++
		}
	}
	if ends != 1 {
		t.Fatalf("trace span [%d, %d) holds %d split-end events of bucket %d, want 1", seq0, seq1, ends, oldB)
	}
	if led.PhaseTotal() != led.Elapsed() {
		t.Fatalf("phases sum to %d ns, elapsed %d ns", led.PhaseTotal(), led.Elapsed())
	}
}

// waitQueuedOnLatch returns once some goroutine is parked on an
// RWMutex's semaphore: the op under test has queued on the held stripe.
func waitQueuedOnLatch(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("sync.runtime_SemacquireRWMutex")) {
			return
		}
	}
	t.Fatal("the op never queued on the stripe latch")
}
