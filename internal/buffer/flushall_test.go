package buffer

import (
	"math/rand"
	"testing"

	"unixhash/internal/pagefile"
)

// recordingStore wraps a MemStore and records the order and shape of
// every write it receives, so tests can assert FlushAll's scheduling:
// ascending file offsets with adjacent pages coalesced into vectored
// writes.
type recordingStore struct {
	*pagefile.MemStore
	writes []writeRec // one per WritePage / WritePages call
}

type writeRec struct {
	pageno uint32
	npages int
}

func (r *recordingStore) WritePage(pageno uint32, buf []byte) error {
	r.writes = append(r.writes, writeRec{pageno, 1})
	return r.MemStore.WritePage(pageno, buf)
}

func (r *recordingStore) WritePages(pageno uint32, buf []byte) error {
	r.writes = append(r.writes, writeRec{pageno, len(buf) / r.PageSize()})
	return r.MemStore.WritePages(pageno, buf)
}

// plainStore hides the MemStore's VectorWriter implementation, forcing
// FlushAll down the per-page fallback. The no-arg WritePages shadows the
// promoted method with a non-matching signature, so plainStore does not
// satisfy pagefile.VectorWriter.
type plainStore struct {
	*recordingStore
}

func (p *plainStore) WritePages() {}

var _ pagefile.VectorWriter = (*recordingStore)(nil)

// TestFlushAllOrderAndCoalescing dirties pages in a scrambled order and
// checks the flush hits the store as ascending, coalesced runs.
func TestFlushAllOrderAndCoalescing(t *testing.T) {
	rs := &recordingStore{MemStore: pagefile.NewMem(64)}
	p := New(rs, 64*256, identityMap)

	// Pages 0..39 and a disjoint run 100..109 (overflow pages land at
	// 1000+o under identityMap, so use bucket addresses throughout).
	var pages []uint32
	for i := 0; i < 40; i++ {
		pages = append(pages, uint32(i))
	}
	for i := 100; i < 110; i++ {
		pages = append(pages, uint32(i))
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	for _, pg := range pages {
		b, err := p.Get(Addr{N: pg}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		b.Page[0] = byte(pg)
		b.Dirty.Store(true)
		p.Put(b)
	}

	rs.writes = nil
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	if len(rs.writes) == 0 {
		t.Fatal("flush performed no writes")
	}
	total := 0
	last := int64(-1)
	for _, w := range rs.writes {
		if int64(w.pageno) <= last {
			t.Fatalf("writes not in ascending page order: %v", rs.writes)
		}
		last = int64(w.pageno) + int64(w.npages) - 1
		total += w.npages
	}
	if total != len(pages) {
		t.Fatalf("flushed %d pages, want %d", total, len(pages))
	}
	// 50 dirty pages in two contiguous runs must not take 50 calls. With
	// everything resident, exactly 2 vectored writes.
	if len(rs.writes) != 2 {
		t.Errorf("flush used %d writes, want 2 coalesced runs: %v", len(rs.writes), rs.writes)
	}

	// Everything clean now: a second FlushAll writes nothing.
	rs.writes = nil
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(rs.writes) != 0 {
		t.Fatalf("second flush rewrote clean pages: %v", rs.writes)
	}

	// The data really landed.
	buf := make([]byte, 64)
	for _, pg := range pages {
		if err := rs.ReadPage(identityMap(Addr{N: pg}), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(pg) {
			t.Fatalf("page %d content = %d", pg, buf[0])
		}
	}
}

// TestFlushAllRunCap: a contiguous dirty run longer than the coalescing
// cap is split into cap-sized writes, still in ascending order.
func TestFlushAllRunCap(t *testing.T) {
	rs := &recordingStore{MemStore: pagefile.NewMem(64)}
	p := New(rs, 64*512, identityMap)
	const n = maxCoalesce + 10
	for i := 0; i < n; i++ {
		b, err := p.Get(Addr{N: uint32(i)}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		b.Dirty.Store(true)
		p.Put(b)
	}
	rs.writes = nil
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(rs.writes) != 2 {
		t.Fatalf("flush used %d writes, want 2 (cap %d): %v", len(rs.writes), maxCoalesce, rs.writes)
	}
	if rs.writes[0].npages != maxCoalesce || rs.writes[1].npages != 10 {
		t.Fatalf("run split = %v, want [%d, 10]", rs.writes, maxCoalesce)
	}
}

// TestFlushAllPlainStore: a store without WritePages gets ordered
// per-page writes.
func TestFlushAllPlainStore(t *testing.T) {
	rs := &recordingStore{MemStore: pagefile.NewMem(64)}
	ps := &plainStore{recordingStore: rs}
	p := New(ps, 64*256, identityMap)
	for _, pg := range []uint32{9, 3, 7, 4, 5} {
		b, err := p.Get(Addr{N: pg}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		b.Dirty.Store(true)
		p.Put(b)
	}
	rs.writes = nil
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	want := []writeRec{{3, 1}, {4, 1}, {5, 1}, {7, 1}, {9, 1}}
	if len(rs.writes) != len(want) {
		t.Fatalf("writes = %v, want %v", rs.writes, want)
	}
	for i, w := range want {
		if rs.writes[i] != w {
			t.Fatalf("writes = %v, want %v", rs.writes, want)
		}
	}
}
