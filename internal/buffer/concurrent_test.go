package buffer

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"unixhash/internal/pagefile"
)

// These tests exercise the pool's concurrency contract: shard locking,
// atomic pins, chain/shard locality and overcommit under contention.
// Run them with -race. Page *contents* are not guarded by the pool (the
// table's RW lock does that), so every test either partitions pages per
// goroutine or treats shared pages as read-only after setup.

// TestPoolConcurrentPinBlocksEviction holds a pin on one page while
// other goroutines force evictions through every shard. The pinned
// buffer must survive with its identity and contents intact.
func TestPoolConcurrentPinBlocksEviction(t *testing.T) {
	store := pagefile.NewMem(64)
	p := New(store, 64*8, identityMap) // 8 buffers, 1 shard
	pinned, err := p.Get(Addr{N: 0}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	copy(pinned.Page, "keepme")

	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a disjoint page range so writes never race.
			base := uint32(1 + w*100)
			for i := 0; i < 500; i++ {
				b, err := p.Get(Addr{N: base + uint32(i%50)}, nil, true)
				if err != nil {
					errs <- err
					return
				}
				b.Page[0] = byte(w + 1)
				b.Dirty.Store(true)
				p.Put(b)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p.Counters().Evictions == 0 {
		t.Fatal("pressure produced no evictions; test is not testing anything")
	}
	if got := p.Lookup(Addr{N: 0}); got != pinned {
		t.Fatalf("pinned buffer replaced: %p != %p", got, pinned)
	}
	if string(pinned.Page[:6]) != "keepme" {
		t.Fatalf("pinned page contents clobbered: %q", pinned.Page[:6])
	}
	p.Put(pinned)
}

// TestPoolChainShardLocality verifies that however an overflow page is
// reached — chained through its predecessor or unlinked via GetOwned —
// it lands in its owning bucket's shard, so chain eviction never needs
// a second shard lock.
func TestPoolChainShardLocality(t *testing.T) {
	store := pagefile.NewMem(64)
	p := New(store, 64*64, identityMap)
	if p.ShardCount() < 2 {
		t.Skipf("pool built only %d shard(s)", p.ShardCount())
	}
	for owner := uint32(0); owner < 32; owner++ {
		prim, err := p.Get(Addr{N: owner}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		o1, err := p.Get(Addr{N: owner*2 + 1, Ovfl: true}, prim, true)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := p.GetOwned(Addr{N: owner*2 + 2, Ovfl: true}, owner, true)
		if err != nil {
			t.Fatal(err)
		}
		if o1.sh != prim.sh || o2.sh != prim.sh {
			t.Fatalf("owner %d: chain spread across shards", owner)
		}
		if o1.Owner() != owner || o2.Owner() != owner {
			t.Fatalf("owner %d: recorded owners %d, %d", owner, o1.Owner(), o2.Owner())
		}
		p.Put(o2)
		p.Put(o1)
		p.Put(prim)
	}
}

// TestPoolConcurrentChainEvictionOrdering builds chains in every shard,
// then applies concurrent eviction pressure. Whenever a primary has
// been evicted, its chained overflow buffers must be gone too — an
// overflow page never outlives its predecessor in the pool.
func TestPoolConcurrentChainEvictionOrdering(t *testing.T) {
	store := pagefile.NewMem(64)
	p := New(store, 64*32, identityMap) // 32 buffers across shards
	const chains = 8
	for owner := uint32(0); owner < chains; owner++ {
		prim, err := p.Get(Addr{N: owner}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		o1, err := p.Get(Addr{N: owner + 100, Ovfl: true}, prim, true)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(o1)
		p.Put(prim)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint32(1000 + w*500)
			for i := 0; i < 400; i++ {
				b, err := p.Get(Addr{N: base + uint32(i%200)}, nil, true)
				if err != nil {
					panic(err)
				}
				p.Put(b)
			}
		}(w)
	}
	wg.Wait()

	for owner := uint32(0); owner < chains; owner++ {
		prim := p.Lookup(Addr{N: owner})
		ovfl := p.Lookup(Addr{N: owner + 100, Ovfl: true})
		if prim == nil && ovfl != nil {
			t.Fatalf("owner %d: overflow buffer outlived its evicted primary", owner)
		}
	}
	if p.Counters().Evictions == 0 {
		t.Fatal("pressure produced no evictions; test is not testing anything")
	}
}

// TestPoolConcurrentOvercommit has every goroutine pin more buffers
// than its share of the pool simultaneously. The pool must overcommit
// rather than deadlock or fail, and every pinned page must keep the
// value its owner wrote.
func TestPoolConcurrentOvercommit(t *testing.T) {
	store := pagefile.NewMem(64)
	p := New(store, 64*8, identityMap) // 8 buffers, 1 shard
	cap_ := p.MaxBuffers()

	var wg sync.WaitGroup
	const workers = 4
	errs := make(chan error, workers*2)
	var allPinned sync.WaitGroup // barrier: no unpin until every worker holds its quota
	allPinned.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint32(w * 1000)
			var held []*Buf
			// Together the workers pin 4*cap buffers at once.
			for i := 0; i < cap_; i++ {
				b, err := p.Get(Addr{N: base + uint32(i)}, nil, true)
				if err != nil {
					errs <- fmt.Errorf("worker %d pin %d: %w", w, i, err)
					break
				}
				b.Page[0] = byte(w + 1)
				b.Dirty.Store(true)
				held = append(held, b)
			}
			allPinned.Done()
			allPinned.Wait()
			for _, b := range held {
				if b.Page[0] != byte(w+1) {
					errs <- fmt.Errorf("worker %d: page %v clobbered", w, b.Addr)
				}
				p.Put(b)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p.Counters().Overcommits == 0 {
		t.Fatal("no overcommit recorded with all buffers pinned")
	}
}

// TestPoolConcurrentHammer drives random traffic from many goroutines:
// a shared read-only region plus a private writable region per worker.
// It exists to give the race detector surface area over the shard maps,
// LRU lists and pin counts.
func TestPoolConcurrentHammer(t *testing.T) {
	store := pagefile.NewMem(64)
	p := New(store, 64*24, identityMap)

	// Shared pages, written once before the workers start.
	const shared = 40
	for i := uint32(0); i < shared; i++ {
		b, err := p.Get(Addr{N: i}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		b.Page[0] = byte(i + 1)
		b.Dirty.Store(true)
		p.Put(b)
	}

	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			priv := uint32(10000 + w*1000)
			for i := 0; i < 2000; i++ {
				if rng.Intn(2) == 0 { // shared read
					n := uint32(rng.Intn(shared))
					b, err := p.Get(Addr{N: n}, nil, true)
					if err != nil {
						errs <- err
						return
					}
					if b.Page[0] != byte(n+1) {
						errs <- fmt.Errorf("shared page %d reads %d", n, b.Page[0])
						p.Put(b)
						return
					}
					p.Put(b)
				} else { // private write
					n := priv + uint32(rng.Intn(100))
					b, err := p.Get(Addr{N: n}, nil, true)
					if err != nil {
						errs <- err
						return
					}
					b.Page[1] = byte(w)
					b.Dirty.Store(true)
					p.Put(b)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
