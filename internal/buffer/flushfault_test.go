package buffer

import (
	"errors"
	"testing"

	"unixhash/internal/pagefile"
)

// TestFlushAllPartialRunFailure pins FlushAll's failure contract: when a
// coalesced vectored run fails mid-way (some of its pages reached the
// store, some did not), no page of that run may have its dirty flag
// cleared — a cleared flag on an unwritten page would silently lose the
// mutation at the next sync. Runs that completed before the failure are
// clean; runs after it were never attempted and stay dirty.
func TestFlushAllPartialRunFailure(t *testing.T) {
	errBoom := errors.New("injected write failure")
	fs := pagefile.NewFault(pagefile.NewMem(64))
	p := New(fs, 64*256, identityMap)

	// Two coalesced runs: 0..5 and 8..13. The fault hits page 10, so the
	// second run fails after pages 8 and 9 already reached the store.
	dirty := func(pages ...uint32) {
		t.Helper()
		for _, pg := range pages {
			b, err := p.Get(Addr{N: pg}, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			b.Page[0] = byte(pg + 1)
			b.Dirty.Store(true)
			p.Put(b)
		}
	}
	dirty(0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13)
	fs.Inject(pagefile.Fault{Op: pagefile.OpWrite, After: 1, Err: errBoom, Page: 10})

	if err := p.FlushAll(); !errors.Is(err, errBoom) {
		t.Fatalf("FlushAll error = %v, want %v", err, errBoom)
	}
	for _, pg := range []uint32{0, 1, 2, 3, 4, 5} {
		if b := p.Lookup(Addr{N: pg}); b == nil || b.Dirty.Load() {
			t.Fatalf("page %d of the completed run still dirty", pg)
		}
	}
	for _, pg := range []uint32{8, 9, 10, 11, 12, 13} {
		if b := p.Lookup(Addr{N: pg}); b == nil || !b.Dirty.Load() {
			t.Fatalf("page %d of the failed run was dirty-cleared", pg)
		}
	}

	// Retrying after the fault clears writes every page of the failed
	// run again — including 8 and 9, which the partial run did write:
	// staying dirty costs a rewrite, clearing early would cost the data.
	fs.Clear()
	if err := p.FlushAll(); err != nil {
		t.Fatalf("retry FlushAll: %v", err)
	}
	buf := make([]byte, 64)
	for _, pg := range []uint32{0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13} {
		if b := p.Lookup(Addr{N: pg}); b == nil || b.Dirty.Load() {
			t.Fatalf("page %d dirty after successful retry", pg)
		}
		if err := fs.ReadPage(pg, buf); err != nil {
			t.Fatalf("read page %d: %v", pg, err)
		}
		if buf[0] != byte(pg+1) {
			t.Fatalf("page %d content %d, want %d", pg, buf[0], pg+1)
		}
	}
}

// TestFlushAllFaultAtEveryRunBoundary sweeps the fault across every page
// of a multi-run flush and checks the invariant at each position: a page
// is clean only if its whole run was written.
func TestFlushAllFaultAtEveryRunBoundary(t *testing.T) {
	errBoom := errors.New("injected write failure")
	pages := []uint32{0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 20}
	runOf := func(pg uint32) int {
		switch {
		case pg <= 5:
			return 0
		case pg <= 13:
			return 1
		default:
			return 2
		}
	}
	for _, faultPage := range pages {
		fs := pagefile.NewFault(pagefile.NewMem(64))
		p := New(fs, 64*256, identityMap)
		for _, pg := range pages {
			b, err := p.Get(Addr{N: pg}, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			b.Dirty.Store(true)
			p.Put(b)
		}
		fs.Inject(pagefile.Fault{Op: pagefile.OpWrite, After: 1, Err: errBoom, Page: faultPage})
		if err := p.FlushAll(); !errors.Is(err, errBoom) {
			t.Fatalf("fault at %d: FlushAll error = %v", faultPage, err)
		}
		for _, pg := range pages {
			b := p.Lookup(Addr{N: pg})
			if b == nil {
				t.Fatalf("fault at %d: page %d not resident", faultPage, pg)
			}
			// Clean iff the page's run completed — i.e. the run comes
			// strictly before the faulted page's run.
			wantClean := runOf(pg) < runOf(faultPage)
			if got := !b.Dirty.Load(); got != wantClean {
				t.Fatalf("fault at %d: page %d clean=%v, want %v", faultPage, pg, got, wantClean)
			}
		}
	}
}
