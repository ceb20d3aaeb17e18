package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestSpaceParityAcrossPools loads the same pairs at the end-to-end
// benchmark's geometry (4096/24, 13-byte keys, 100-byte values, batches
// of 1 000) through a 64 KiB and a 64 MiB pool. The small pool writes
// overflow pages out before the splits free them; the large one drops
// them unwritten. Once Close's checkpoint has punched the free pages,
// both files must hold the same blocks, and both must read back whole.
func TestSpaceParityAcrossPools(t *testing.T) {
	n := 60_000
	if testing.Short() {
		n = 20_000
	}
	val := bytes.Repeat([]byte{'v'}, 100)
	load := func(cache int) (path string, blocks int64) {
		path = filepath.Join(t.TempDir(), "t.db")
		tbl := mustOpen(t, path, &Options{Bsize: 4096, Ffactor: 24, CacheSize: cache})
		pairs := make([]Pair, 0, 1000)
		for i := 0; i < n; i++ {
			pairs = append(pairs, Pair{Key: []byte(fmt.Sprintf("key-%09d", i)), Data: val})
			if len(pairs) == cap(pairs) || i == n-1 {
				if err := tbl.PutBatch(pairs); err != nil {
					t.Fatalf("cache %d: put batch: %v", cache, err)
				}
				pairs = pairs[:0]
			}
		}
		if err := tbl.Close(); err != nil {
			t.Fatalf("cache %d: close: %v", cache, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, fi.Sys().(*syscall.Stat_t).Blocks
	}
	smallPath, small := load(64 << 10)
	largePath, large := load(64 << 20)
	t.Logf("%d pairs: allocated 512-byte blocks %d (64 KiB pool) vs %d (64 MiB pool)", n, small, large)
	if d := small - large; 100*max(d, -d) > large {
		t.Errorf("allocated blocks differ by more than 1%%: %d (64 KiB pool) vs %d (64 MiB pool)", small, large)
	}
	for _, path := range []string{smallPath, largePath} {
		tbl := mustOpen(t, path, &Options{})
		for i := 0; i < n; i++ {
			if v, err := tbl.Get([]byte(fmt.Sprintf("key-%09d", i))); err != nil || !bytes.Equal(v, val) {
				t.Fatalf("%s: key %d after reopen: %v", path, i, err)
			}
		}
		if err := tbl.Check(); err != nil {
			t.Errorf("%s: Check: %v", path, err)
		}
		tbl.Close()
	}
}
