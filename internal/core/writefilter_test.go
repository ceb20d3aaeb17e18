package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

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
// still find the copy on the chain; an inexact filter is trusted for
// membership, which stays exact.
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
				if pg.filterHints(tbl.hash(wkey(i))) == 0 {
					k = wkey(i)
				}
			}
		})
		if k == nil {
			t.Fatal("every key has a tag: the test would be vacuous")
		}
		replaceOnChain(t, tbl, k, n, tbl.Put)
	})

	t.Run("inexact", func(t *testing.T) {
		const n = 10
		tbl := oneBucket(t, n, Options{})
		// Position 1 holds wkey(2) and wkey(3): emptying it unlinks a page
		// with successors, which leaves the position hints stale.
		for _, i := range []int{2, 3} {
			if err := tbl.Delete(wkey(i)); err != nil {
				t.Fatal(err)
			}
		}
		primaryFilter(t, tbl, func(pg page) {
			if !pg.fltInexactBit() || pg.fltSaturatedBit() {
				t.Fatalf("filter flags %#x, want inexact and not saturated", pg[fltFlagsOff])
			}
		})
		replaceOnChain(t, tbl, wkey(n-1), n-2, tbl.Put)
		// Membership is still trusted: a key the filter rules out is
		// deleted without a chain read.
		miss := []byte("no-such-key")
		primaryFilter(t, tbl, func(pg page) {
			for pg.filterHints(tbl.hash(miss)) != 0 {
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

// modelStates tallies the primary-filter states a model run passed
// through, so a run can show it exercised them.
type modelStates struct{ saturated, inexact int }

// observe scans every primary page of tbl.
func (s *modelStates) observe(t *testing.T, tbl *Table) {
	t.Helper()
	for b := uint32(0); b <= tbl.Geometry().MaxBucket; b++ {
		pb, err := tbl.getBucketPage(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		switch pg := page(pb.Page); {
		case pg.fltSaturatedBit():
			s.saturated++
		case pg.fltInexactBit():
			s.inexact++
		}
		tbl.pool.Put(pb)
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
// through saturated filters and through unlinks that leave the hints
// stale; a splitting table spreads the keys. The same seed with
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
				seen.inexact += states.inexact
			})
		}
		if c.name == "chain" && (seen.saturated == 0 || seen.inexact == 0) {
			t.Errorf("the chain runs saw %d saturated and %d inexact filters, want both", seen.saturated, seen.inexact)
		}
	}
}
