// Everything hsearch could not do, in one program: multiple hash tables
// accessed concurrently, a user-specified hash function, key/data pairs
// far larger than a page, and tables that move between memory and disk —
// the "Enhanced Functionality" list from the paper.
//
//	go run ./examples/multitable /tmp/multitable-dir
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"unixhash/internal/core"
	"unixhash/internal/hashfunc"
)

func main() {
	dir := "/tmp/multitable-example"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}

	// 1. Multiple tables open concurrently — hsearch's interface
	// embedded the notion of a single table; here four goroutines each
	// own one table, plus they all share a fifth.
	shared, err := core.Open(filepath.Join(dir, "shared.db"), nil)
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own, err := core.Open("", nil) // private, memory-resident
			if err != nil {
				log.Fatal(err)
			}
			defer own.Close()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("worker%d-key%d", w, i)
				if err := own.Put([]byte(k), []byte("private")); err != nil {
					log.Fatal(err)
				}
				// The shared table is safe for concurrent use.
				if err := shared.Put([]byte(k), []byte(fmt.Sprintf("from-%d", w))); err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("worker %d: private table holds %d pairs\n", w, own.Len())
		}(w)
	}
	wg.Wait()
	fmt.Printf("shared table holds %d pairs\n\n", shared.Len())
	if err := shared.Close(); err != nil {
		log.Fatal(err)
	}

	// 2. A user-specified hash function, fixed at creation time. The
	// package stores a check value so reopening with the wrong function
	// is detected rather than silently corrupting lookups.
	custom := filepath.Join(dir, "custom-hash.db")
	os.Remove(custom)
	t, err := core.Open(custom, &core.Options{Hash: hashfunc.FNV1a})
	if err != nil {
		log.Fatal(err)
	}
	if err := t.Put([]byte("k"), []byte("v")); err != nil {
		log.Fatal(err)
	}
	if err := t.Close(); err != nil {
		log.Fatal(err)
	}
	if _, err := core.Open(custom, nil); err != nil {
		fmt.Printf("reopening with the default hash correctly fails: %v\n", err)
	}
	t, err = core.Open(custom, &core.Options{Hash: hashfunc.FNV1a})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reopening with the matching hash function succeeds")
	t.Close()

	// 3. Large key/data pairs: "inserts never fail because key and/or
	// associated data is too large". A 1 MB value on 256-byte pages goes
	// onto a buddy-in-waiting overflow chain transparently.
	big, err := core.Open(filepath.Join(dir, "big.db"), &core.Options{Bsize: 256})
	if err != nil {
		log.Fatal(err)
	}
	defer big.Close()
	blob := bytes.Repeat([]byte("megabyte "), 1<<20/9+1)[:1<<20]
	if err := big.Put([]byte("blob"), blob); err != nil {
		log.Fatal(err)
	}
	back, err := big.Get([]byte("blob"))
	if err != nil {
		log.Fatal(err)
	}
	h, err := big.Heatmap()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstored and retrieved a %d-byte value on %d-byte pages (%d overflow pages)\n",
		len(back), 256, h.OverflowPages+h.BigPairPages)
}
