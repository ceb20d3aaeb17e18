package pagefile

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentStoreAccess hammers each backend from many goroutines,
// each owning a disjoint page range; run with -race this validates the
// stores' concurrency claims.
func TestConcurrentStoreAccess(t *testing.T) {
	fs, err := OpenFile(filepath.Join(t.TempDir(), "conc.pg"), 128, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	stores := map[string]Store{"file": fs, "mem": NewMem(128)}

	for name, s := range stores {
		s := s
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := make([]byte, 128)
					base := uint32(w * 100)
					for i := 0; i < 200; i++ {
						pg := base + uint32(i%100)
						copy(buf, fmt.Sprintf("w%d-i%d", w, i))
						if err := s.WritePage(pg, buf); err != nil {
							t.Errorf("write: %v", err)
							return
						}
						got := make([]byte, 128)
						if err := s.ReadPage(pg, got); err != nil {
							t.Errorf("read: %v", err)
							return
						}
						if !bytes.Equal(got[:8], buf[:8]) {
							t.Errorf("w%d page %d: got %q want %q", w, pg, got[:8], buf[:8])
							return
						}
					}
				}(w)
			}
			wg.Wait()
			// Stats must account for every operation without racing.
			snap := s.Stats().Snapshot()
			if snap.Writes < 8*200 || snap.Reads < 8*200 {
				t.Fatalf("stats lost operations: %+v", snap)
			}
		})
	}
}

// TestConcurrentStatsReaders checks that Snapshot is safe against
// concurrent operations.
func TestConcurrentStatsReaders(t *testing.T) {
	s := NewMem(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.WritePage(i%50, buf)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				snap := s.Stats().Snapshot()
				if snap.Writes < 0 {
					t.Error("negative writes")
					return
				}
			}
		}()
	}
	for i := 0; i < 4000; i++ {
		_ = s.Stats().Snapshot()
	}
	close(stop)
	wg.Wait()
}
