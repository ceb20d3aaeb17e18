package core

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
)

// TestSharedAccountingUnderConcurrentSyncs is the satellite-1 regression
// net for the suspected lost-update window between syncLocked's fold of
// the running counters (nkeysA, pairSumA) into the header and a
// concurrent writer's updates. The fold runs under the exclusive table
// lock, so no window should exist; this test drives writers, deleters
// and four concurrent syncers together under -race and then verifies the
// final count, the structural Check, and a clean reopen (whose header
// decode would catch a fingerprint that drifted from the pages).
func TestSharedAccountingUnderConcurrentSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acct.db")
	tbl := mustOpen(t, path, &Options{Bsize: 128, Ffactor: 4, CacheSize: 1 << 16})

	const (
		workers = 8
		perW    = 150
	)
	var writerWG, syncerWG sync.WaitGroup
	errc := make(chan error, workers+4)
	stop := make(chan struct{})

	// Syncers race the writers the whole time.
	for s := 0; s < 4; s++ {
		syncerWG.Add(1)
		go func() {
			defer syncerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tbl.Sync(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	expected := int64(0)
	var expMu sync.Mutex
	for w := 0; w < workers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			count := int64(0)
			for i := 0; i < perW; i++ {
				n := w*10000 + i
				v := val(n)
				if i%11 == 3 {
					v = bytes.Repeat([]byte{byte('a' + w)}, 300) // big pair
				}
				if err := tbl.Put(key(n), v); err != nil {
					errc <- err
					return
				}
				count++
				if err := tbl.Put(key(n), val2(n)); err != nil { // replace: count unchanged
					errc <- err
					return
				}
				if i%3 == 0 {
					if err := tbl.Delete(key(n)); err != nil {
						errc <- err
						return
					}
					count--
				}
			}
			expMu.Lock()
			expected += count
			expMu.Unlock()
		}(w)
	}

	writerWG.Wait()
	close(stop)
	syncerWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if got := int64(tbl.Len()); got != expected {
		t.Fatalf("Len = %d, want %d", got, expected)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("final sync: %v", err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	g := tbl.Geometry()
	if g.NKeys != expected {
		t.Fatalf("header nkeys %d, want %d", g.NKeys, expected)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen and re-verify: the stored fingerprint and count must match
	// the pages exactly (Verify dry-runs the recovery gate on a dirty
	// file and Check walks the structure on a clean one).
	re := mustOpen(t, path, nil)
	defer re.Close()
	if got := int64(re.Len()); got != expected {
		t.Fatalf("reopened Len = %d, want %d", got, expected)
	}
	if err := re.Verify(); err != nil {
		t.Fatalf("verify after reopen: %v", err)
	}
}
