package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"unixhash/internal/buffer"
	"unixhash/internal/pagefile"
	"unixhash/internal/wal"
)

// Writes trust the primary's tag filter exactly as reads do: a key with
// no tag is proven absent, so its write reads no further than the page
// that takes its pair. These tests pin where that trust must stop — the
// fallbacks below each still find the copy on the chain — and that no
// write, through any entry point, ever leaves a second copy of a key.

// wkey is key i of these tests. The default hash folds a key's last byte
// into its low bits only, so the 6 tag bits come from the bytes before
// it: keys that differ only at the end share a tag, and these do not.
func wkey(i int) []byte { return []byte(fmt.Sprintf("w%03d.", i)) }

// oneBucket opens a memory table whose keys all land in one bucket of
// 256-byte pages, and stores keys wkey(0..n-1) with 90-byte values: two
// pairs a page, so the chain is n/2 pages long.
func oneBucket(t *testing.T, n int, o Options) *Table {
	t.Helper()
	o.Bsize, o.Ffactor, o.ControlledOnly = 256, 1<<20, true
	tbl := mustOpen(t, "", &o)
	t.Cleanup(func() { tbl.Close() })
	for i := 0; i < n; i++ {
		if err := tbl.Put(wkey(i), bytes.Repeat([]byte{'v'}, 90)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// primaryFilter runs fn on bucket 0's pinned primary page and marks it
// dirty.
func primaryFilter(t *testing.T, tbl *Table, fn func(pg page)) {
	t.Helper()
	pb, err := tbl.getBucketPage(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn(page(pb.Page))
	pb.Dirty.Store(true)
	tbl.pool.Put(pb)
}

// wipeTags empties bucket 0's tag set without saturating it: the filter
// then claims every key absent, as a torn or disabled filter might.
func wipeTags(t *testing.T, tbl *Table) {
	primaryFilter(t, tbl, func(pg page) { pg[fltCountOff] = 0 })
}

// replaceOnChain replaces k through fn and checks the table still holds
// exactly one copy of it, with the new value, and n keys in all.
func replaceOnChain(t *testing.T, tbl *Table, k []byte, n int, fn func(k, v []byte) error) {
	t.Helper()
	v := []byte("replaced")
	if err := fn(k, v); err != nil {
		t.Fatalf("replace %q: %v", k, err)
	}
	copies := 0
	for it := tbl.Iter(); it.Next(); {
		if bytes.Equal(it.Key(), k) {
			copies++
			if !bytes.Equal(it.Value(), v) {
				t.Errorf("%q holds %q, want %q", k, it.Value(), v)
			}
		}
	}
	if copies != 1 {
		t.Errorf("%q stored %d times after a replace", k, copies)
	}
	if got := tbl.Len(); got != n {
		t.Errorf("Len = %d after a replace, want %d", got, n)
	}
	if err := tbl.Check(); err != nil {
		t.Error(err)
	}
}

// TestWriteFilterFallbacks: the write path consults the filter only when
// a read would. A saturated filter, a table awaiting recovery and
// DisableFilter each leave the key's tag missing, and the write must
// still find the copy on the chain. Unlinking a page that has
// successors leaves membership exact, so that filter is still trusted.
func TestWriteFilterFallbacks(t *testing.T) {
	t.Run("saturated", func(t *testing.T) {
		const n = 40 // 32 tags fit a 256-byte page
		tbl := oneBucket(t, n, Options{})
		var k []byte
		primaryFilter(t, tbl, func(pg page) {
			if !pg.fltSaturatedBit() {
				t.Fatal("filter not saturated")
			}
			for i := n - 1; i >= 0 && k == nil; i-- {
				if !pg.filterHas(tbl.hash(wkey(i))) {
					k = wkey(i)
				}
			}
		})
		if k == nil {
			t.Fatal("every key has a tag: the test would be vacuous")
		}
		replaceOnChain(t, tbl, k, n, tbl.Put)
	})

	t.Run("unlink-with-successors", func(t *testing.T) {
		const n = 10
		tbl := oneBucket(t, n, Options{})
		// Position 1 holds wkey(2) and wkey(3): emptying it unlinks a page
		// with successors.
		for _, i := range []int{2, 3} {
			if err := tbl.Delete(wkey(i)); err != nil {
				t.Fatal(err)
			}
		}
		primaryFilter(t, tbl, func(pg page) {
			if pg.fltSaturatedBit() || pg.fltChainLen() != n/2-2 {
				t.Fatalf("filter flags %#x, chain of %d overflow pages; want unsaturated and %d",
					pg[fltFlagsOff], pg.fltChainLen(), n/2-2)
			}
		})
		replaceOnChain(t, tbl, wkey(n-1), n-2, tbl.Put)
		// Membership is still trusted: a key the filter rules out is
		// deleted without a chain read.
		miss := []byte("no-such-key")
		primaryFilter(t, tbl, func(pg page) {
			for pg.filterHas(tbl.hash(miss)) {
				miss = append(miss, '!')
			}
		})
		before := tbl.n.chainPages.Load()
		if err := tbl.Delete(miss); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Delete(%q) = %v, want ErrNotFound", miss, err)
		}
		if got := tbl.n.chainPages.Load(); got != before {
			t.Errorf("a delete the filter rules out read %d chain pages", got-before)
		}
	})

	t.Run("needs-recovery", func(t *testing.T) {
		const n = 10
		tbl := oneBucket(t, n, Options{})
		wipeTags(t, tbl)
		// Writes refuse a table that awaits Recover, whose own replay
		// runs after the filters are rebuilt; applySet is what both call.
		replaceOnChain(t, tbl, wkey(n-1), n, func(k, v []byte) error {
			tbl.mu.RLock()
			defer tbl.mu.RUnlock()
			tbl.needsRecovery = true
			defer func() { tbl.needsRecovery = false }()
			set := []writeOp{{key: k, data: v}}
			if _, err := tbl.applySet(set, true, nil); err != nil {
				return err
			}
			if !set[0].found {
				return errors.New("the copy on the chain was not found")
			}
			return nil
		})
	})

	t.Run("disabled", func(t *testing.T) {
		const n = 10
		tbl := oneBucket(t, n, Options{DisableFilter: true})
		wipeTags(t, tbl)
		replaceOnChain(t, tbl, wkey(n-1), n, tbl.Put)
	})
}

// modelStates tallies what a model run passed through, so a run can
// show it exercised it: saturated primary filters, and overflow pages
// unlinked while they had successors.
type modelStates struct {
	saturated, midUnlinks int
	chains                map[uint32][]uint32 // each bucket's overflow pages at the last observe
}

// observe scans every bucket chain of tbl. It also holds each primary to
// the rule older builds read by: a primary holding tags has fltInexact
// set, so they take its tags for membership only.
func (s *modelStates) observe(t *testing.T, tbl *Table) {
	t.Helper()
	prev := s.chains
	s.chains = map[uint32][]uint32{}
	for b := uint32(0); b <= tbl.Geometry().MaxBucket; b++ {
		var chain []uint32
		err := tbl.walkChain(nil, b, false, func(buf *buffer.Buf) (bool, error) {
			if buf.Addr.Ovfl {
				chain = append(chain, buf.Addr.N)
				return false, nil
			}
			pg := page(buf.Page)
			if pg.fltSaturatedBit() {
				s.saturated++
			}
			if pg.fltCount() > 0 && pg[fltFlagsOff]&fltInexact == 0 {
				t.Errorf("bucket %d: %d tags with fltInexact clear", b, pg.fltCount())
			}
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s.chains[b] = chain
		// A page gone from the chain whose successor is still on it.
		if old := prev[b]; len(old) > 1 {
			for i, o := range old[:len(old)-1] {
				if !slices.Contains(chain, o) && slices.Contains(chain, old[i+1]) {
					s.midUnlinks++
				}
			}
		}
	}
}

// runNoDuplicates drives Put, PutNew, Delete, PutBatch and transactions
// over 56 keys on 256-byte pages, where 6-bit tags collide often, and
// crashes the table every crashEvery steps: the table is abandoned
// without a sync and Recover reopens its store and log, rebuilding every
// filter and replaying the logged commits. After each step Check passes
// and Seq yields exactly the oracle — what survives a crash is the last
// checkpoint plus the committed transactions. It returns the final
// contents and the filter states seen.
func runNoDuplicates(t *testing.T, seed int64, o Options, crashEvery int) (map[string]string, modelStates) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	store, dev := pagefile.NewMem(256, pagefile.CostModel{}), wal.NewMemDevice()
	o.Store, o.WALDevice, o.Bsize, o.CacheSize = store, dev, 256, 1<<20 // no eviction between checkpoints
	tbl := mustOpen(t, "", &o)
	defer func() { tbl.Close() }()

	live, durable := map[string]string{}, map[string]string{}
	randKey := func() []byte { return wkey(rng.Intn(56)) }
	randVal := func() []byte {
		switch n := rng.Intn(20); {
		case n == 0: // a big pair
			return bytes.Repeat([]byte{'B'}, 300)
		case n < 8: // two or three pairs a page
			return bytes.Repeat([]byte{'m'}, 60+n)
		default:
			return []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
		}
	}
	var states modelStates
	for step := 0; step < 600; step++ {
		k, v := randKey(), randVal()
		var err error
		switch op := rng.Intn(10); {
		case op < 2:
			err = tbl.Put(k, v)
			live[string(k)] = string(v)
		case op < 6:
			// A held key is deleted (nil); any other answers ErrNotFound,
			// whether the filter or the chain walk rules it out.
			err = tbl.Delete(k)
			if _, held := live[string(k)]; !held {
				if err == nil {
					err = errors.New("Delete of an absent key returned nil")
				} else if errors.Is(err, ErrNotFound) {
					err = nil
				}
			}
			delete(live, string(k))
		case op < 7:
			err = tbl.PutNew(k, v)
			if _, held := live[string(k)]; !held {
				live[string(k)] = string(v)
			} else if err == nil {
				err = errors.New("PutNew of a held key returned nil")
			} else if errors.Is(err, ErrKeyExists) {
				err = nil
			}
		case op < 8:
			pairs := []Pair{{k, v}}
			for i := rng.Intn(6); i > 0; i-- {
				pairs = append(pairs, Pair{randKey(), randVal()})
			}
			err = tbl.PutBatch(pairs)
			for _, p := range pairs {
				live[string(p.Key)] = string(p.Data)
			}
		default: // a transaction of puts and deletes
			x, berr := tbl.Begin()
			if berr != nil {
				t.Fatalf("step %d: Begin: %v", step, berr)
			}
			for i := 1 + rng.Intn(4); i > 0 && err == nil; i-- {
				k, v := randKey(), randVal()
				if rng.Intn(2) == 0 {
					err = x.Delete(k)
					delete(live, string(k))
					delete(durable, string(k))
				} else {
					err = x.Put(k, v)
					live[string(k)] = string(v)
					durable[string(k)] = string(v)
				}
			}
			if err == nil {
				err = x.Commit()
			}
		}
		if err != nil {
			t.Fatalf("step %d on %q: %v", step, k, err)
		}
		switch {
		case step%crashEvery == crashEvery-1:
			var rerr error
			if tbl, _, rerr = Recover("", &o); rerr != nil {
				t.Fatalf("step %d: Recover after a crash: %v", step, rerr)
			}
			live = maps.Clone(durable)
			states.chains = nil // the chains went back to the checkpoint
		case step%crashEvery == crashEvery/2:
			if err := tbl.Sync(); err != nil {
				t.Fatalf("step %d: Sync: %v", step, err)
			}
			durable = maps.Clone(live)
		}
		states.observe(t, tbl)
		if err := tbl.Check(); err != nil {
			t.Fatalf("step %d: Check: %v", step, err)
		}
		got, n := map[string]string{}, 0
		for it := tbl.Iter(); it.Next(); n++ {
			got[string(it.Key())] = string(it.Value())
		}
		if n != len(live) || !maps.Equal(got, live) {
			t.Fatalf("step %d: Seq yields %d pairs (%d keys), the oracle holds %d", step, n, len(got), len(live))
		}
	}
	return live, states
}

// TestModelWritesNeverDuplicate: a write never stores a second copy of a
// key, however the filter answers. One bucket with a long chain passes
// through saturated filters and through unlinks of pages that have
// successors; a splitting table spreads the keys. The same seed with
// DisableFilter, where every write walks its whole chain, ends with the
// same contents.
func TestModelWritesNeverDuplicate(t *testing.T) {
	configs := []struct {
		name string
		o    Options
	}{
		{"chain", Options{Ffactor: 1 << 20, ControlledOnly: true}},
		{"splits", Options{Ffactor: 4}},
	}
	for _, c := range configs {
		var seen modelStates
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				on, states := runNoDuplicates(t, seed, c.o, 50)
				off := c.o
				off.DisableFilter = true
				if got, _ := runNoDuplicates(t, seed, off, 50); !maps.Equal(got, on) {
					t.Errorf("DisableFilter ends with %d keys, the filtered run with %d", len(got), len(on))
				}
				seen.saturated += states.saturated
				seen.midUnlinks += states.midUnlinks
			})
		}
		if c.name == "chain" && (seen.saturated == 0 || seen.midUnlinks == 0) {
			t.Errorf("the chain runs saw %d saturated filters and %d unlinks of pages with successors, want both",
				seen.saturated, seen.midUnlinks)
		}
	}
}

// TestFilterReadsOlderTags: files from older builds carry a chain-position
// hint in the top 2 bits of every tag, with fltInexact clear. This build
// treats every tag by its low 6 bits, on reads and writes alike, and
// what it writes is marked membership only for those older readers.
func TestFilterReadsOlderTags(t *testing.T) {
	const n = 10 // five pages: the primary and four overflow pages
	tbl := oneBucket(t, n, Options{})
	stampOlderTags(t, tbl, n)
	if err := tbl.Check(); err != nil {
		t.Fatalf("Check of hinted tags: %v", err)
	}
	val := bytes.Repeat([]byte{'v'}, 90)
	want := map[string]string{}
	for i := range n {
		want[string(wkey(i))] = string(val)
		if got, err := tbl.Get(wkey(i)); err != nil || !bytes.Equal(got, val) {
			t.Fatalf("Get(%q) = %.8q, %v", wkey(i), got, err)
		}
	}
	for _, i := range []int{0, 5} {
		if err := tbl.Delete(wkey(i)); err != nil {
			t.Fatalf("Delete(%q): %v", wkey(i), err)
		}
		if _, err := tbl.Get(wkey(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q) after its delete: %v", wkey(i), err)
		}
		delete(want, string(wkey(i)))
	}
	// A removal may take the tag of another key with the same hash bits,
	// whose hint then names the wrong page.
	requireInexact(t, tbl)
	replaceOnChain(t, tbl, wkey(n-1), n-2, tbl.Put)
	want[string(wkey(n-1))] = "replaced"
	if err := tbl.PutNew(wkey(1), []byte("dup")); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("PutNew of a held key: %v", err)
	}
	if err := tbl.PutNew(wkey(0), []byte("new")); err != nil {
		t.Fatalf("PutNew of a deleted key: %v", err)
	}
	want[string(wkey(0))] = "new"
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for it := tbl.Iter(); it.Next(); {
		if _, dup := got[string(it.Key())]; dup {
			t.Errorf("%q stored twice", it.Key())
		}
		got[string(it.Key())] = string(it.Value())
	}
	if !maps.Equal(got, want) {
		t.Errorf("table holds %d keys, want %d", len(got), len(want))
	}
	primaryFilter(t, tbl, func(pg page) {
		if pg.fltCount() != len(want) {
			t.Errorf("filter holds %d tags, want %d", pg.fltCount(), len(want))
		}
	})
	requireInexact(t, tbl)
}

// stampOlderTags puts chain-position hints 1-3 into the top bits of
// bucket 0's n tags and clears fltInexact, as an older build left them.
func stampOlderTags(t *testing.T, tbl *Table, n int) {
	t.Helper()
	primaryFilter(t, tbl, func(pg page) {
		if pg.fltSaturatedBit() || pg.fltCount() != n {
			t.Fatalf("filter holds %d tags (flags %#x), want %d unsaturated", pg.fltCount(), pg[fltFlagsOff], n)
		}
		for i := range n {
			pg[fltTagsOff+i] |= byte(1+i%3) << 6
		}
		pg[fltFlagsOff] &^= fltInexact
	})
}

// requireInexact fails unless bucket 0's primary has fltInexact set.
func requireInexact(t *testing.T, tbl *Table) {
	t.Helper()
	primaryFilter(t, tbl, func(pg page) {
		if pg[fltFlagsOff]&fltInexact == 0 {
			t.Errorf("filter flags %#x: fltInexact clear, older readers would trust the hints", pg[fltFlagsOff])
		}
	})
}

// TestUnlinkMarksMembershipOnly: an overflow page an older build left
// empty mid-chain is unlinked by the next write that walks it, with no
// tag removed on the way. Its successors move up one position, so the
// primary must be marked membership only for older readers.
func TestUnlinkMarksMembershipOnly(t *testing.T) {
	const n = 10
	tbl := oneBucket(t, n, Options{})
	stampOlderTags(t, tbl, n)
	// Empty chain position 2 (wkey(4) and wkey(5)) and take their tags.
	var gone [][]byte
	if err := tbl.walkChain(nil, 0, false, func(b *buffer.Buf) (bool, error) {
		if len(gone) > 0 || page(b.Page).nentries() != 2 {
			return false, nil
		}
		e, err := page(b.Page).entryAt(0)
		if err != nil || !bytes.Equal(e.key, wkey(4)) {
			return false, err
		}
		for page(b.Page).nentries() > 0 {
			e, _ := page(b.Page).entryAt(0)
			gone = append(gone, append([]byte(nil), e.key...))
			tbl.xorPairSum(pairHash(e.key, e.data))
			if err := page(b.Page).removeEntry(0); err != nil {
				return false, err
			}
			tbl.nkeysA.Add(-1)
		}
		b.Dirty.Store(true)
		return true, nil
	}); err != nil || len(gone) != 2 {
		t.Fatalf("emptying position 2: %v, %d keys taken", err, len(gone))
	}
	primaryFilter(t, tbl, func(pg page) {
		for _, k := range gone {
			pg.filterRemove(tbl.hash(k))
		}
		pg[fltFlagsOff] &^= fltInexact
	})
	if err := tbl.Check(); err != nil {
		t.Fatalf("Check with an empty page mid-chain: %v", err)
	}
	// A Delete of an absent key the filter cannot rule out walks the
	// chain and unlinks the empty page.
	var miss []byte
	primaryFilter(t, tbl, func(pg page) {
		for i := 0; miss == nil; i++ {
			if k := []byte(fmt.Sprintf("absent-%d", i)); pg.filterHas(tbl.hash(k)) {
				miss = k
			}
		}
	})
	if err := tbl.Delete(miss); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(%q) = %v, want ErrNotFound", miss, err)
	}
	primaryFilter(t, tbl, func(pg page) {
		if pg.fltChainLen() != n/2-2 {
			t.Fatalf("chain of %d overflow pages, want %d: the empty page was not unlinked", pg.fltChainLen(), n/2-2)
		}
	})
	requireInexact(t, tbl)
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != n-2 {
		t.Errorf("Len = %d, want %d", got, n-2)
	}
}
