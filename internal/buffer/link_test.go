package buffer

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
)

// TestPoolEvictColdSuffixUnlinksPredecessor is the case the chain links
// are two-way for: a predecessor kept hot while its overflow suffix goes
// cold. Pool pressure evicts the suffix alone; the predecessor stays
// resident with no link into the recycled buffers, and the next chain
// walk links a freshly faulted buffer carrying the written-back page.
func TestPoolEvictColdSuffixUnlinksPredecessor(t *testing.T) {
	p, _ := newTestPool(t, 1) // MinBuffers pages, one shard
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
	o1.Page[0] = 0xA1
	p.Put(o2)
	p.Put(o1)
	p.Put(prim)

	// Fill the pool, then touch the primary: the suffix o1 → o2 is now
	// the coldest resident chain and the primary the hottest page.
	for i := 1; p.Resident() < p.MaxBuffers(); i++ {
		b, err := p.Get(Addr{N: uint32(i)}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(b)
	}
	prim, _ = p.Get(Addr{N: 0}, nil, false)
	p.Put(prim)
	ev := p.Counters().Evictions
	b, err := p.Get(Addr{N: 100}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(b)

	if got := p.Counters().Evictions - ev; got != 2 {
		t.Fatalf("pressure evicted %d buffers, want the 2-page suffix", got)
	}
	if p.Lookup(Addr{N: 0}) != prim {
		t.Fatal("hot predecessor evicted with its cold suffix")
	}
	if p.Lookup(Addr{N: 5, Ovfl: true}) != nil || p.Lookup(Addr{N: 6, Ovfl: true}) != nil {
		t.Fatal("cold suffix still resident")
	}
	if prim.Ovfl() != nil {
		t.Fatal("predecessor still links into the evicted suffix")
	}

	prim, _ = p.Get(Addr{N: 0}, nil, false)
	n1, err := p.Get(Addr{N: 5, Ovfl: true}, prim, false)
	if err != nil {
		t.Fatal(err)
	}
	if prim.Ovfl() != n1 || n1.pred != prim {
		t.Fatal("chain walk after eviction did not link the fresh buffer")
	}
	if n1.Page[0] != 0xA1 {
		t.Fatalf("refaulted page reads %#x, want the written-back 0xa1", n1.Page[0])
	}
	p.Put(n1)
	p.Put(prim)
	checkLinks(t, p)
}

// Chain pages for the randomized test: owner o's chain is overflow
// addresses o*chainStride+1 .. o*chainStride+chainLen.
const (
	chainOwners = 6
	chainStride = 8
	chainLen    = 4
)

func chainAddr(o uint32, k int) Addr { return Addr{N: o*chainStride + uint32(k), Ovfl: true} }

// TestPoolChainLinkInvariant runs a seeded random mix of chain walks
// (Get with a predecessor), unlinked GetOwned fetches, Drop, Discard and
// pressure evictions against 8- to 16-page pools, and after
// every step checks the two-way link invariant: every ovfl target is
// resident in its predecessor's shard and linked from exactly one
// buffer, its pred.
func TestPoolChainLinkInvariant(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pages := 8 + int(seed%3)*4 // 8, 12 or 16 pages: one or two shards
		t.Run(fmt.Sprintf("seed=%d/pages=%d", seed, pages), func(t *testing.T) {
			store := pagefile.NewMem(64)
			pg := make([]byte, 64)
			for o := uint32(0); o < chainOwners; o++ {
				store.WritePage(identityMap(Addr{N: o}), pg)
				for k := 1; k <= chainLen; k++ {
					store.WritePage(identityMap(chainAddr(o, k)), pg)
				}
			}
			p := New(store, 64*pages, identityMap)
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 3000; step++ {
				o := uint32(rng.Intn(chainOwners))
				switch op := rng.Intn(6); op {
				case 0, 1: // chain walk to a random depth; maybe drop its last page
					walk := []*Buf{mustGet(t, p, Addr{N: o}, nil)}
					for k := 1; k <= 1+rng.Intn(chainLen); k++ {
						walk = append(walk, mustGet(t, p, chainAddr(o, k), walk[k-1]))
					}
					if rng.Intn(3) == 0 {
						walk[len(walk)-1].Page[2]++ // written back if evicted
						walk[len(walk)-1].Dirty.Store(true)
					}
					if len(walk) > 1 && rng.Intn(4) == 0 {
						p.Drop(walk[len(walk)-1]) // consumes its pin
						walk = walk[:len(walk)-1]
					}
					for i := len(walk) - 1; i >= 0; i-- {
						p.Put(walk[i])
					}
				case 2, 3: // unlinked fetch of a chain page
					b, err := p.GetOwned(chainAddr(o, 1+rng.Intn(chainLen)), o, false)
					if err != nil {
						t.Fatal(err)
					}
					p.Put(b)
				case 4:
					p.Discard(chainAddr(o, 1+rng.Intn(chainLen)))
				case 5: // pressure: fault pages no chain owns
					for i := 0; i < 1+rng.Intn(pages); i++ {
						b, err := p.Get(Addr{N: 100 + uint32(rng.Intn(64))}, nil, true)
						if err != nil {
							t.Fatal(err)
						}
						p.Put(b)
					}
				}
				if t.Failed() {
					return
				}
				checkLinks(t, p)
				if t.Failed() {
					t.Fatalf("link invariant broken at step %d", step)
				}
			}
			if p.Counters().Evictions == 0 {
				t.Fatalf("run never evicted: %+v", p.Counters())
			}
		})
	}
}

func mustGet(t *testing.T, p *Pool, a Addr, prev *Buf) *Buf {
	t.Helper()
	b, err := p.Get(a, prev, false)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkLinks verifies, shard by shard, that the chain links are two-way
// and stay inside the shard's residency: each ovfl target is resident in
// the same shard and referenced by exactly one buffer, its pred, and
// nothing on the free list still links anywhere.
func checkLinks(t *testing.T, p *Pool) {
	t.Helper()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		refs := map[*Buf]int{}
		for _, b := range sh.table {
			if b.sh != sh {
				t.Errorf("%v resident in the wrong shard", b.Addr)
			}
			if o := b.ovfl; o != nil {
				refs[o]++
				if sh.table[o.Addr] != o {
					t.Errorf("%v links to %v, not resident in its shard", b.Addr, o.Addr)
				}
				if o.pred != b {
					t.Errorf("%v links to %v, whose pred is not %v", b.Addr, o.Addr, b.Addr)
				}
			}
			if q := b.pred; q != nil && (q.ovfl != b || sh.table[q.Addr] != q) {
				t.Errorf("%v names pred %v, which does not link to it from this shard", b.Addr, q.Addr)
			}
		}
		for b, n := range refs {
			if n != 1 {
				t.Errorf("%v linked from %d buffers", b.Addr, n)
			}
		}
		for _, b := range sh.free {
			if b.ovfl != nil || b.pred != nil {
				t.Errorf("recycled buffer %v still linked", b.Addr)
			}
		}
		sh.mu.Unlock()
	}
}

// faultPool builds a full pool of the given page count over a memory
// store of storePages pages and returns a page order under which every
// Get is a fault: each page comes back only after the whole store has
// streamed past an LRU pool at most half its size. The store is the
// same size whatever the pool, so pool size is the only variable.
func faultPool(tb testing.TB, pages, storePages int) (*Pool, []Addr) {
	tb.Helper()
	const bsize = 4096 // the page size the benchmark workloads run
	store := pagefile.NewMem(bsize)
	pg := make([]byte, bsize)
	order := make([]Addr, storePages)
	for i, n := range rand.New(rand.NewSource(1)).Perm(len(order)) {
		store.WritePage(uint32(n), pg)
		order[i] = Addr{N: uint32(n)}
	}
	p := New(store, pages*bsize, func(a Addr) uint32 { return a.N })
	for _, a := range order {
		b, err := p.Get(a, nil, false)
		if err != nil {
			tb.Fatal(err)
		}
		p.Put(b)
	}
	return p, order
}

// BenchmarkPoolFault is the fault path alone: a Get that misses, evicts
// the shard's coldest page and reads its replacement from a memory
// store. An eviction touches only the victim's chain, so the cost must
// not grow with the pool.
func BenchmarkPoolFault(b *testing.B) {
	for _, pages := range []int{16, 2048} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			p, order := faultPool(b, pages, 2*2048)
			miss := p.Counters().Misses
			runtime.GC() // the store build's garbage is not the fault path's
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err := p.Get(order[i%len(order)], nil, false)
				if err != nil {
					b.Fatal(err)
				}
				p.Put(buf)
			}
			b.StopTimer()
			if got := p.Counters().Misses - miss; got != int64(b.N) {
				b.Fatalf("%d of %d Gets faulted", got, b.N)
			}
		})
	}
}

// TestPoolFaultAllocs: a steady-state fault — eviction, recycled buffer,
// store read — allocates nothing, with or without a live op ledger.
func TestPoolFaultAllocs(t *testing.T) {
	p, order := faultPool(t, 64, 256)
	var led oplog.Ledger
	led.StartOp(oplog.CmdGet, nil)
	i := 0
	miss := p.Counters().Misses
	for name, l := range map[string]*oplog.Ledger{"nil-ledger": nil, "live-ledger": &led} {
		allocs := testing.AllocsPerRun(500, func() {
			b, err := p.GetOp(l, order[i%len(order)], nil, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Put(b)
			i++
		})
		if allocs != 0 {
			t.Fatalf("faulting Get+Put (%s) allocated %.1f times per op, want 0", name, allocs)
		}
	}
	if got := p.Counters().Misses - miss; got != int64(i) {
		t.Fatalf("%d of %d Gets faulted", got, i)
	}
	if led.PhaseCount(oplog.PhaseBufFault) == 0 {
		t.Fatal("live ledger charged no faults")
	}
}
