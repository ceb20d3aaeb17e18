package pagefile

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func allocatedBlocks(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Sys().(*syscall.Stat_t).Blocks
}

// TestFileStorePunchHole: a punch gives the blocks of the pages inside
// the file back, they read as zeros, the file keeps its length, and a
// range past the end costs nothing.
func TestFileStorePunchHole(t *testing.T) {
	const ps = 4096
	path := filepath.Join(t.TempDir(), "p")
	fs, err := OpenFile(path, ps, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	full := bytes.Repeat([]byte{0xAB}, 8*ps)
	if err := fs.WritePages(0, full); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := allocatedBlocks(t, path)
	if err := fs.PunchHole(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := fs.PunchHole(100, 5); err != nil {
		t.Fatalf("punch past the end: %v", err)
	}
	after := allocatedBlocks(t, path)
	if after >= before {
		t.Skipf("the file system kept the blocks (%d before, %d after): no hole support", before, after)
	}
	if got := before - after; got != 3*ps/512 {
		t.Errorf("punch gave back %d 512-byte blocks, want %d", got, 3*ps/512)
	}
	buf := make([]byte, ps)
	for pn := uint32(0); pn < 8; pn++ {
		want := full[:ps]
		if pn >= 2 && pn < 5 {
			want = make([]byte, ps)
		}
		if err := fs.ReadPage(pn, buf); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("page %d after the punch = %#x, %v", pn, buf[0], err)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 8*ps || fs.NPages() != 8 {
		t.Fatalf("after the punch: size %d, %d pages, %v; want %d, 8", fi.Size(), fs.NPages(), err, 8*ps)
	}
	if e := fs.Stats().Snapshot().Errors; e != 0 {
		t.Fatalf("Errors = %d after punches that succeeded", e)
	}
}

// TestFileStorePunchErrorCounted: a punch the kernel refuses (here a
// closed descriptor) is returned and counted in Stats.Errors.
func TestFileStorePunchErrorCounted(t *testing.T) {
	fs, err := OpenFile(filepath.Join(t.TempDir(), "p"), 64, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WritePage(3, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	fs.f.Close()
	if err := fs.PunchHole(0, 2); err == nil {
		t.Fatal("punch on a closed descriptor succeeded")
	}
	if e := fs.Stats().Snapshot().Errors; e != 1 {
		t.Fatalf("Errors = %d, want 1", e)
	}
}
