package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFileDeviceGrowth pins the growth rule: the file grows in whole
// zero-filled chunks ahead of the appends, a Reset leaves exactly the
// header, and a reopened log continues at its last commit, inside the
// zeroed region.
func TestFileDeviceGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grow.wal")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(dev, CostModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != HeaderSize {
		t.Fatalf("after Reset: %d bytes, want %d", got, HeaderSize)
	}
	commit := func(ops []Op) int64 {
		t.Helper()
		_, end, err := l.Append(ops)
		if err == nil {
			err = l.SyncTo(end)
		}
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	end0 := commit(txnOps(0))
	if got := fileSize(t, path); got != growChunk {
		t.Fatalf("after one append: %d bytes, want one chunk (%d)", got, growChunk)
	}
	step := commit(txnOps(1)) - end0 // every txnOps commit is this long
	for i := 2; i < 20; i++ {
		commit(txnOps(i))
	}
	if got := fileSize(t, path); got != growChunk {
		t.Fatalf("appends inside the zeroed region grew the file to %d", got)
	}
	// A transaction bigger than a chunk grows the file in whole chunks.
	big := []Op{{Key: []byte("big"), Data: bytes.Repeat([]byte{'b'}, 2*growChunk)}}
	end := commit(big)
	if got := fileSize(t, path); got%growChunk != 0 || got < end || got-end >= growChunk {
		t.Fatalf("after a %d-byte commit ending at %d: %d bytes, want the next chunk boundary", 2*growChunk, end, got)
	}
	end = commit(txnOps(20))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without a Reset: the zeros are free space, not a tear.
	dev, err = OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, sr, err := Open(dev, CostModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if sr.Torn || len(sr.Txns) != 22 || sr.ValidEnd != end || l.Size() != end {
		t.Fatalf("reopen: torn=%v txns=%d ValidEnd=%d size=%d; want false, 22, %d, %d",
			sr.Torn, len(sr.Txns), sr.ValidEnd, l.Size(), end, end)
	}
	size := fileSize(t, path)
	if next := commit(txnOps(21)); next != end+step {
		t.Fatalf("append after reopen ends at %d, want %d", next, end+step)
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("append after reopen grew the file %d -> %d", size, got)
	}
	if err := l.Reset(sr.LastLSN+10, 1); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != HeaderSize {
		t.Fatalf("after Reset: %d bytes, want %d", got, HeaderSize)
	}
}

// TestFileDeviceTruncateRezeroes: Truncate moves the zeroed frontier
// back, so after a failed append is cut off, the next write past the cut
// zero-fills from the cut and no byte of the failed write survives.
func TestFileDeviceTruncateRezeroes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.wal")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if _, err := dev.WriteAt(bytes.Repeat([]byte{0xee}, 4096), HeaderSize); err != nil {
		t.Fatal(err)
	}
	const cut = HeaderSize + 100
	if err := dev.Truncate(cut); err != nil {
		t.Fatal(err)
	}
	if sz, _ := dev.Size(); sz != cut || fileSize(t, path) != cut {
		t.Fatalf("after Truncate(%d): Size %d, file %d bytes", cut, sz, fileSize(t, path))
	}
	if _, err := dev.WriteAt([]byte{1}, cut+10); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != growChunk {
		t.Fatalf("write past the cut: %d bytes, want %d", got, growChunk)
	}
	tail := make([]byte, growChunk-cut)
	if _, err := dev.ReadAt(tail, cut); err != nil {
		t.Fatal(err)
	}
	tail[10] = 0 // the byte just written
	if !bytes.Equal(tail, make([]byte, len(tail))) {
		t.Fatalf("bytes past the cut are not zero: %x", bytes.TrimRight(tail, "\x00"))
	}
}

// BenchmarkLogCommitFile is a durable commit on a real file: Append of a
// three-put transaction (~430 bytes) then SyncTo, by 1 and 2 concurrent
// committers. commits/fsync is how many commits each device sync
// covered — above 1 only when the group fsync found committers to join.
func BenchmarkLogCommitFile(b *testing.B) {
	val := bytes.Repeat([]byte{'v'}, 100)
	for _, committers := range []int{1, 2} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			dev, err := OpenFileDevice(filepath.Join(b.TempDir(), "wal"))
			if err != nil {
				b.Fatal(err)
			}
			l, _, err := Open(dev, CostModel{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if err := l.Reset(0, 0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				n := b.N / committers
				if c < b.N%committers {
					n++
				}
				ops := make([]Op, 3)
				for j := range ops {
					ops[j] = Op{Key: fmt.Appendf(nil, "committer%d-key%d", c, j), Data: val}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						_, end, err := l.Append(ops)
						if err == nil {
							err = l.SyncTo(end)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/float64(max(l.Stats().Fsyncs, 1)), "commits/fsync")
		})
	}
}
