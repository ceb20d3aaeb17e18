package buffer

import (
	"fmt"
	"testing"

	"unixhash/internal/pagefile"
)

// identityMap places bucket n at page n and overflow page o at page
// 1000+o — a trivial layout adequate for pool tests.
func identityMap(a Addr) uint32 {
	if a.Ovfl {
		return 1000 + a.N
	}
	return a.N
}

func newTestPool(t *testing.T, maxBytes int) (*Pool, *pagefile.MemStore) {
	t.Helper()
	store := pagefile.NewMem(64)
	return New(store, maxBytes, identityMap), store
}

func TestPoolGetCreate(t *testing.T) {
	p, store := newTestPool(t, 64*16)
	b, err := p.Get(Addr{N: 3}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Dirty.Load() {
		t.Fatal("fresh page not marked dirty")
	}
	if !b.Pinned() {
		t.Fatal("returned buffer not pinned")
	}
	copy(b.Page, "hello")
	p.Put(b)

	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := store.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) != "hello" {
		t.Fatalf("flushed page = %q", buf[:5])
	}
}

func TestPoolGetNoCreate(t *testing.T) {
	p, _ := newTestPool(t, 64*16)
	if _, err := p.Get(Addr{N: 9}, nil, false); err == nil {
		t.Fatal("Get of missing page without create succeeded")
	}
}

func TestPoolHitMiss(t *testing.T) {
	p, _ := newTestPool(t, 64*16)
	b, err := p.Get(Addr{N: 1}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(b)
	b2, err := p.Get(Addr{N: 1}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(b2)
	if b != b2 {
		t.Fatal("second Get returned a different buffer")
	}
	if c := p.Counters(); c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestPoolLRUEviction(t *testing.T) {
	p, store := newTestPool(t, 1) // MinBuffers pages
	cap_ := p.MaxBuffers()

	// Fill the pool, unpinning everything.
	for i := 0; i < cap_; i++ {
		b, err := p.Get(Addr{N: uint32(i)}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		b.Page[0] = byte(i)
		p.Put(b)
	}
	if p.Resident() != cap_ {
		t.Fatalf("resident = %d, want %d", p.Resident(), cap_)
	}
	// Touch page 0 so page 1 is the LRU victim.
	b, _ := p.Get(Addr{N: 0}, nil, false)
	p.Put(b)

	nb, err := p.Get(Addr{N: 100}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(nb)
	if c := p.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if p.Lookup(Addr{N: 1}) != nil {
		t.Fatal("LRU page 1 still resident")
	}
	if p.Lookup(Addr{N: 0}) == nil {
		t.Fatal("recently used page 0 evicted")
	}
	// The evicted dirty page must have been written.
	buf := make([]byte, 64)
	if err := store.ReadPage(1, buf); err != nil || buf[0] != 1 {
		t.Fatalf("evicted page not flushed: %v %d", err, buf[0])
	}
}

func TestPoolPinnedNotEvicted(t *testing.T) {
	p, _ := newTestPool(t, 1)
	cap_ := p.MaxBuffers()

	pinned, err := p.Get(Addr{N: 0}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// Fill past capacity; page 0 stays pinned throughout.
	for i := 1; i < cap_*3; i++ {
		b, err := p.Get(Addr{N: uint32(i)}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(b)
	}
	if p.Lookup(Addr{N: 0}) != pinned {
		t.Fatal("pinned buffer was evicted")
	}
	p.Put(pinned)
}

func TestPoolOvercommitWhenAllPinned(t *testing.T) {
	p, _ := newTestPool(t, 1)
	cap_ := p.MaxBuffers()

	var bufs []*Buf
	for i := 0; i < cap_+3; i++ {
		b, err := p.Get(Addr{N: uint32(i)}, nil, true)
		if err != nil {
			t.Fatalf("Get %d with all pinned: %v", i, err)
		}
		bufs = append(bufs, b)
	}
	if p.Counters().Overcommits == 0 {
		t.Fatal("no overcommit recorded")
	}
	for _, b := range bufs {
		p.Put(b)
	}
}

func TestPoolChainEviction(t *testing.T) {
	p, _ := newTestPool(t, 1)
	cap_ := p.MaxBuffers()

	// Build a primary with two chained overflow buffers.
	prim, err := p.Get(Addr{N: 0}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	o1, err := p.Get(Addr{N: 5, Ovfl: true}, prim, true)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := p.Get(Addr{N: 6, Ovfl: true}, o1, true)
	if err != nil {
		t.Fatal(err)
	}
	if prim.Ovfl() != o1 || o1.Ovfl() != o2 {
		t.Fatal("chain links not recorded")
	}
	p.Put(o2)
	p.Put(o1)
	p.Put(prim)

	// Force the primary out: its whole chain must leave with it.
	for i := 1; i < cap_*3; i++ {
		b, err := p.Get(Addr{N: uint32(i)}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(b)
	}
	if p.Lookup(Addr{N: 0}) != nil {
		t.Fatal("primary still resident after pressure")
	}
	if p.Lookup(Addr{N: 5, Ovfl: true}) != nil || p.Lookup(Addr{N: 6, Ovfl: true}) != nil {
		t.Fatal("overflow buffers outlived their primary")
	}
}

func TestPoolChainPinnedBlocksEviction(t *testing.T) {
	p, _ := newTestPool(t, 1)
	cap_ := p.MaxBuffers()

	prim, err := p.Get(Addr{N: 0}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	o1, err := p.Get(Addr{N: 5, Ovfl: true}, prim, true)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(prim) // primary unpinned, but its chain tail stays pinned

	for i := 1; i < cap_*2; i++ {
		b, err := p.Get(Addr{N: uint32(i)}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(b)
	}
	if p.Lookup(Addr{N: 0}) == nil {
		t.Fatal("primary evicted while a chained successor was pinned")
	}
	p.Put(o1)
}

func TestPoolDrop(t *testing.T) {
	p, store := newTestPool(t, 64*16)
	prim, _ := p.Get(Addr{N: 0}, nil, true)
	o1, _ := p.Get(Addr{N: 5, Ovfl: true}, prim, true)
	o2, _ := p.Get(Addr{N: 6, Ovfl: true}, o1, true)
	p.Put(o2)

	o1.Page[0] = 0xEE // would be written if flushed
	p.Drop(o1)        // consumes the pin
	if o1.Pinned() {
		t.Fatal("Drop did not release the caller's pin")
	}
	if prim.Ovfl() != o2 {
		t.Fatal("Drop did not relink predecessor to successor")
	}
	if p.Lookup(Addr{N: 5, Ovfl: true}) != nil {
		t.Fatal("dropped buffer still resident")
	}
	p.Put(prim)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// The dropped page must not have been written.
	buf := make([]byte, 64)
	if err := store.ReadPage(1005, buf); err == nil && buf[0] == 0xEE {
		t.Fatal("dropped dirty page leaked to store")
	}
}

// TestPoolDropPinned: Drop releases the caller's pin under the shard lock
// and leaves every other pin standing. Before it did, a caller unpinned
// first and then dropped, and between the two calls the buffer was an
// evictable cold suffix: in a full one-shard, 8-buffer pool, a fault for
// bucket 7 recycled that very *Buf, and the Drop that followed removed
// bucket 7 from under its holder — clearing its Dirty flag (a lost
// write) and zeroing its pins (the holder's Put panicked).
func TestPoolDropPinned(t *testing.T) {
	p, store := newTestPool(t, 64*8)
	if p.ShardCount() != 1 || p.MaxBuffers() != 8 {
		t.Fatalf("want one shard of 8 buffers, got %d shards of %d", p.ShardCount(), p.MaxBuffers())
	}
	prim, _ := p.Get(Addr{N: 0}, nil, true)
	o, _ := p.Get(Addr{N: 5, Ovfl: true}, prim, true)
	for i := 1; i <= 6; i++ {
		b, _ := p.Get(Addr{N: uint32(i)}, nil, true)
		p.Put(b)
	}
	// A second holder of the page being dropped.
	other, err := p.Get(Addr{N: 5, Ovfl: true}, prim, false)
	if err != nil || other != o {
		t.Fatalf("second pin: %v, same buffer %v", err, other == o)
	}

	p.Drop(o)
	if p.Lookup(Addr{N: 5, Ovfl: true}) != nil {
		t.Fatal("dropped buffer still resident")
	}
	if !other.Pinned() {
		t.Fatal("Drop released a pin it did not own")
	}
	b7, err := p.Get(Addr{N: 7}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if b7 == o {
		t.Fatal("a dropped buffer was recycled while still pinned")
	}
	b7.Page[0] = 0x77
	b7.Dirty.Store(true)
	p.Put(other)
	p.Put(b7)
	p.Put(prim)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := store.ReadPage(7, buf); err != nil || buf[0] != 0x77 {
		t.Fatalf("bucket 7's write was lost: %v, byte %#x", err, buf[0])
	}
}

func TestPoolDiscard(t *testing.T) {
	p, _ := newTestPool(t, 64*16)
	prim, _ := p.Get(Addr{N: 0}, nil, true)
	o1, _ := p.Get(Addr{N: 5, Ovfl: true}, prim, true)
	p.Put(o1)
	p.Put(prim)

	p.Discard(Addr{N: 5, Ovfl: true})
	if p.Lookup(Addr{N: 5, Ovfl: true}) != nil {
		t.Fatal("discarded buffer still resident")
	}
	if prim.Ovfl() != nil {
		t.Fatal("predecessor link not cleared by Discard")
	}
	// Discard of a non-resident address is a no-op.
	p.Discard(Addr{N: 99, Ovfl: true})
}

func TestPoolInvalidateAll(t *testing.T) {
	p, store := newTestPool(t, 64*16)
	for i := 0; i < 5; i++ {
		b, _ := p.Get(Addr{N: uint32(i)}, nil, true)
		b.Page[0] = byte(i + 1)
		p.Put(b)
	}
	if err := p.InvalidateAll(); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 {
		t.Fatalf("resident = %d after InvalidateAll", p.Resident())
	}
	buf := make([]byte, 64)
	for i := uint32(0); i < 5; i++ {
		if err := store.ReadPage(i, buf); err != nil || buf[0] != byte(i+1) {
			t.Fatalf("page %d not flushed by InvalidateAll: %v", i, err)
		}
	}

	b, _ := p.Get(Addr{N: 0}, nil, false)
	p.Put(b)

	pinned, _ := p.Get(Addr{N: 1}, nil, false)
	if err := p.InvalidateAll(); err == nil {
		t.Fatal("InvalidateAll with pinned buffer succeeded")
	}
	p.Put(pinned)
}

func TestPoolPrimaryWithPrevRejected(t *testing.T) {
	p, _ := newTestPool(t, 64*16)
	b, _ := p.Get(Addr{N: 0}, nil, true)
	defer p.Put(b)
	if _, err := p.Get(Addr{N: 1}, b, true); err == nil {
		t.Fatal("primary fetch with predecessor accepted")
	}
}

func TestUnpinPanicsWhenNotPinned(t *testing.T) {
	p, _ := newTestPool(t, 64*16)
	b, _ := p.Get(Addr{N: 0}, nil, true)
	p.Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin did not panic")
		}
	}()
	p.Put(b)
}

func TestPoolManyPages(t *testing.T) {
	p, store := newTestPool(t, 64*32)
	const n = 500
	for i := 0; i < n; i++ {
		b, err := p.Get(Addr{N: uint32(i)}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		copy(b.Page, fmt.Sprintf("page-%d", i))
		p.Put(b)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		if err := store.ReadPage(uint32(i), buf); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want := fmt.Sprintf("page-%d", i)
		if string(buf[:len(want)]) != want {
			t.Fatalf("page %d = %q", i, buf[:len(want)])
		}
	}
	if p.Resident() > p.MaxBuffers() {
		t.Fatalf("resident %d exceeds max %d with no pins", p.Resident(), p.MaxBuffers())
	}
}
