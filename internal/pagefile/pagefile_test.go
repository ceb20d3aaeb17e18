package pagefile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func testStores(t *testing.T, pagesize int) map[string]Store {
	t.Helper()
	fs, err := OpenFile(filepath.Join(t.TempDir(), "store.pg"), pagesize, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return map[string]Store{
		"file": fs,
		"mem":  NewMem(pagesize),
	}
}

func TestStoreReadWrite(t *testing.T) {
	for name, s := range testStores(t, 128) {
		t.Run(name, func(t *testing.T) {
			if s.PageSize() != 128 {
				t.Fatalf("PageSize = %d", s.PageSize())
			}
			buf := make([]byte, 128)
			if err := s.ReadPage(0, buf); !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("read of unallocated page = %v, want ErrNotAllocated", err)
			}
			w := bytes.Repeat([]byte{0xAB}, 128)
			if err := s.WritePage(3, w); err != nil {
				t.Fatal(err)
			}
			if got := s.NPages(); got != 4 {
				t.Fatalf("NPages = %d, want 4", got)
			}
			if err := s.ReadPage(3, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, w) {
				t.Fatal("read back wrong bytes")
			}
			// Pages within range but never written read as zero (file
			// hole) or ErrNotAllocated (mem) — both are accepted by the
			// buffer layer; here just check no crash and full-size read.
			err := s.ReadPage(1, buf)
			if err != nil && !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("hole read: %v", err)
			}
			if err == nil && !bytes.Equal(buf, make([]byte, 128)) {
				t.Fatal("hole read returned nonzero bytes")
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreRejectsWrongBufferSize(t *testing.T) {
	for name, s := range testStores(t, 128) {
		t.Run(name, func(t *testing.T) {
			if err := s.WritePage(0, make([]byte, 64)); err == nil {
				t.Fatal("short write buffer accepted")
			}
			if err := s.ReadPage(0, make([]byte, 256)); err == nil {
				t.Fatal("long read buffer accepted")
			}
		})
	}
}

func TestStoreStats(t *testing.T) {
	s := NewMem(64)
	buf := make([]byte, 64)
	for i := uint32(0); i < 10; i++ {
		if err := s.WritePage(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 5; i++ {
		if err := s.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	s.Sync()
	snap := s.Stats().Snapshot()
	if snap.Writes != 10 || snap.Reads != 5 || snap.Syncs != 1 {
		t.Fatalf("stats = %+v", snap)
	}
	if snap.BytesWritten != 640 || snap.BytesRead != 320 {
		t.Fatalf("byte counts = %+v", snap)
	}

	base := snap
	s.ReadPage(0, buf)
	diff := s.Stats().Snapshot().Sub(base)
	if diff.Reads != 1 || diff.Writes != 0 {
		t.Fatalf("Sub = %+v", diff)
	}

	s.Stats().Reset()
	if got := s.Stats().Snapshot(); got != (StatsSnapshot{}) {
		t.Fatalf("after Reset: %+v", got)
	}
}

func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.pg")
	fs, err := OpenFile(path, 256, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	w := bytes.Repeat([]byte{7}, 256)
	if err := fs.WritePage(2, w); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFile(path, 256, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if fs2.NPages() != 3 {
		t.Fatalf("NPages after reopen = %d", fs2.NPages())
	}
	buf := make([]byte, 256)
	if err := fs2.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, w) {
		t.Fatal("page lost across reopen")
	}
}

func TestFileRejectsMisalignedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "odd.pg")
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 64, CostModel{}); err == nil {
		t.Fatal("opened file whose size is not a page multiple")
	}
}

func TestFileClosedOps(t *testing.T) {
	fs, err := OpenFile(filepath.Join(t.TempDir(), "c.pg"), 64, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	fs.WritePage(0, make([]byte, 64))
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := fs.WritePage(0, make([]byte, 64)); err == nil {
		t.Fatal("write after close succeeded")
	}
	if err := fs.ReadPage(0, make([]byte, 64)); err == nil {
		t.Fatal("read after close succeeded")
	}
	if err := fs.Sync(); err == nil {
		t.Fatal("sync after close succeeded")
	}
}

func TestFaultStore(t *testing.T) {
	inner := NewMem(64)
	fs := NewFault(inner)
	errBoom := errors.New("boom")

	fs.Inject(Fault{Op: OpWrite, After: 3, Err: errBoom, Page: AnyPage})
	buf := make([]byte, 64)
	if err := fs.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.WritePage(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.WritePage(2, buf); !errors.Is(err, errBoom) {
		t.Fatalf("third write = %v, want boom", err)
	}
	// Faults are permanent once triggered.
	if err := fs.WritePage(3, buf); !errors.Is(err, errBoom) {
		t.Fatalf("fourth write = %v, want boom", err)
	}
	fs.Clear()
	if err := fs.WritePage(3, buf); err != nil {
		t.Fatalf("write after Clear: %v", err)
	}

	// Page-specific fault.
	fs.Inject(Fault{Op: OpRead, After: 1, Err: errBoom, Page: 7})
	if err := fs.ReadPage(0, buf); err != nil {
		t.Fatalf("read of non-faulted page: %v", err)
	}
	fs.WritePage(7, buf)
	if err := fs.ReadPage(7, buf); !errors.Is(err, errBoom) {
		t.Fatalf("read of faulted page = %v, want boom", err)
	}

	// Sync faults.
	fs.Clear()
	fs.Inject(Fault{Op: OpSync, After: 1, Err: errBoom})
	if err := fs.Sync(); !errors.Is(err, errBoom) {
		t.Fatalf("sync = %v, want boom", err)
	}
}

// Property: what you write to any page is what you read back, for both
// backends.
func TestQuickRoundtrip(t *testing.T) {
	const ps = 128
	fs, err := OpenFile(filepath.Join(t.TempDir(), "q.pg"), ps, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := NewMem(ps)

	f := func(pageno uint16, content [ps]byte) bool {
		for _, s := range []Store{fs, ms} {
			if err := s.WritePage(uint32(pageno), content[:]); err != nil {
				return false
			}
			buf := make([]byte, ps)
			if err := s.ReadPage(uint32(pageno), buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, content[:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
