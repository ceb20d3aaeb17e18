package buffer

import (
	"fmt"
	"math/rand"
	"testing"

	"unixhash/internal/pagefile"
)

// TestPoolCoherence drives random reads and writes through pools of many
// sizes and verifies that what comes back through the pool always
// reflects the latest write, regardless of evictions — the fundamental
// buffer-manager property.
func TestPoolCoherence(t *testing.T) {
	for _, maxBytes := range []int{1, 64 * 10, 64 * 100} {
		maxBytes := maxBytes
		t.Run(fmt.Sprintf("maxBytes=%d", maxBytes), func(t *testing.T) {
			store := pagefile.NewMem(64)
			p := New(store, maxBytes, identityMap)
			rng := rand.New(rand.NewSource(int64(maxBytes)))

			// model[n] is the last value written to page n (0 = never).
			model := map[uint32]byte{}
			for op := 0; op < 20000; op++ {
				n := uint32(rng.Intn(200))
				addr := Addr{N: n}
				if rng.Intn(4) == 0 && n < 100 {
					addr = Addr{N: n, Ovfl: true}
				}
				var b *Buf
				var err error
				if addr.Ovfl {
					// The pool requires overflow fetches to name their owning
					// bucket; use the page number itself as a stable owner.
					b, err = p.GetOwned(addr, addr.N, true)
				} else {
					b, err = p.Get(addr, nil, true)
				}
				if err != nil {
					t.Fatalf("op %d: Get(%v): %v", op, addr, err)
				}
				id := addr.N
				if addr.Ovfl {
					id += 10000
				}
				if want := model[id]; want != 0 && b.Page[0] != want {
					t.Fatalf("op %d: page %v reads %d, last write was %d",
						op, addr, b.Page[0], want)
				}
				if rng.Intn(2) == 0 { // write
					v := byte(rng.Intn(254) + 1)
					b.Page[0] = v
					b.Dirty.Store(true)
					model[id] = v
				}
				p.Put(b)
			}
			// Flush everything and verify the store directly.
			if err := p.InvalidateAll(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			for id, want := range model {
				pageno := id
				if id >= 10000 {
					pageno = 1000 + (id - 10000)
				}
				if err := store.ReadPage(pageno, buf); err != nil {
					t.Fatalf("store read %d: %v", pageno, err)
				}
				if buf[0] != want {
					t.Fatalf("store page %d = %d, want %d", pageno, buf[0], want)
				}
			}
		})
	}
}

// TestPoolRecycleKeepsDataIntact exercises the evicted-buffer free list:
// reuse must never alias a live buffer's memory.
func TestPoolRecycleKeepsDataIntact(t *testing.T) {
	store := pagefile.NewMem(64)
	p := New(store, 1, identityMap) // MinBuffers pages
	cap_ := p.MaxBuffers()

	// Write distinct pages through heavy eviction pressure.
	for round := 0; round < 20; round++ {
		for i := 0; i < cap_*3; i++ {
			b, err := p.Get(Addr{N: uint32(i)}, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			b.Page[0] = byte(i + 1)
			b.Page[1] = byte(round)
			b.Dirty.Store(true)
			p.Put(b)
		}
		for i := 0; i < cap_*3; i++ {
			b, err := p.Get(Addr{N: uint32(i)}, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if b.Page[0] != byte(i+1) || b.Page[1] != byte(round) {
				t.Fatalf("round %d page %d: got (%d,%d)", round, i, b.Page[0], b.Page[1])
			}
			p.Put(b)
		}
	}
}
