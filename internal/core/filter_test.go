package core

import (
	"errors"
	"fmt"
	"testing"

	"unixhash/internal/oplog"
)

// TestMissAllocs guards the negative-lookup hot path's allocation
// budget: with filters enabled, a Get of an absent key — the case the
// tag filter turns into a pure header consult — must not allocate.
// Observability (skip counters) and the filter probe both work on the
// pinned page and pre-resolved atomics, so "definitely absent" is free.
func TestMissAllocs(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 16})
	defer tbl.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := tbl.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	misses := make([][]byte, n)
	for i := range misses {
		misses[i] = []byte(fmt.Sprintf("absent-%04d", i))
	}
	buf := make([]byte, 0, 64)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		var err error
		buf, err = tbl.GetBuf(misses[i%n], buf)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("miss returned %v", err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("filtered miss allocated %.1f times per op, want 0", allocs)
	}
	if skips := tbl.Counts().FilterSkips; skips == 0 {
		t.Fatal("miss storm never took the filter skip path")
	}

	// Same storm through the op-ledger entry point: a nil ledger must
	// compile down to dead nil checks, and a live ledger charges phases
	// into caller-owned fixed storage — both stay allocation-free.
	for name, led := range map[string]*oplog.Ledger{"nil-ledger": nil, "live-ledger": new(oplog.Ledger)} {
		led := led
		t.Run(name, func(t *testing.T) {
			led.StartOp(oplog.CmdGet, misses[0])
			allocs := testing.AllocsPerRun(500, func() {
				var err error
				buf, err = tbl.GetBufOp(led, misses[i%n], buf)
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("miss returned %v", err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("filtered miss GetBufOp (%s) allocated %.1f times per op, want 0", name, allocs)
			}
			if led != nil && led.PhaseCount(oplog.PhaseFilter) == 0 {
				t.Fatal("live ledger recorded no filter consults")
			}
		})
	}
}

// TestFilterCounters checks the three Get outcomes land in the right
// counters: a present key is a hit, an absent key is (almost always) a
// skip, and consults always equal gets on a filtered table.
func TestFilterCounters(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 16})
	defer tbl.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Get(key(i)); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if _, err := tbl.Get([]byte(fmt.Sprintf("no-such-%04d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("miss %d: %v", i, err)
		}
	}
	c := tbl.Counts()
	hits, skips, fps := c.FilterHits, c.FilterSkips, c.FilterFalsePositives
	if hits != n {
		t.Errorf("filter hits = %d, want %d (every present key consults and passes)", hits, n)
	}
	if skips == 0 {
		t.Error("no miss was answered by the filter alone")
	}
	if hits+skips+fps != 2*n {
		t.Errorf("consults %d+%d+%d != %d gets", hits, skips, fps, 2*n)
	}
}

// TestDisableFilterStillCorrect runs the same workload with filter
// consults off: results must be identical and no filter
// counter may move — DisableFilter gates reads only, maintenance still
// runs so a later reopen with filters on sees valid tags.
func TestDisableFilterStillCorrect(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 16, DisableFilter: true})
	defer tbl.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Get(key(i)); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if _, err := tbl.Get([]byte(fmt.Sprintf("no-such-%04d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("miss %d: %v", i, err)
		}
	}
	if c := tbl.Counts(); c.FilterHits+c.FilterSkips+c.FilterFalsePositives != 0 {
		t.Errorf("DisableFilter consulted the filter %d times", c.FilterHits+c.FilterSkips+c.FilterFalsePositives)
	}
	// Maintenance ran regardless: the structural check's filter leg
	// (tag count vs key count, no false negatives) must hold.
	if err := tbl.Check(); err != nil {
		t.Fatalf("check with filters disabled: %v", err)
	}
}
