//go:build unix

package core

import (
	"errors"
	"path/filepath"
	"testing"

	"unixhash/internal/pagefile"
)

func TestLockExcludesSecondWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "locked.db")
	w1 := mustOpen(t, path, nil)
	defer w1.Close()
	if err := w1.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w1.Sync(); err != nil {
		t.Fatal(err)
	}

	// A second writer must be refused while the first holds the
	// exclusive lock. (flock is per-open-file-description, so two opens
	// in one process conflict just as two processes would.)
	if _, err := Open(path, nil); !errors.Is(err, pagefile.ErrLocked) {
		t.Fatalf("second writer = %v, want ErrLocked", err)
	}
	// A reader is also refused while a writer holds the lock.
	if _, err := Open(path, &Options{ReadOnly: true}); !errors.Is(err, pagefile.ErrLocked) {
		t.Fatalf("reader during write = %v, want ErrLocked", err)
	}
}

func TestSharedReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.db")
	w := mustOpen(t, path, nil)
	if err := w.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Many shared readers coexist.
	r1 := mustOpen(t, path, &Options{ReadOnly: true})
	defer r1.Close()
	r2 := mustOpen(t, path, &Options{ReadOnly: true})
	defer r2.Close()
	if _, err := r1.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	// But a writer is refused while readers hold shared locks.
	if _, err := Open(path, nil); !errors.Is(err, pagefile.ErrLocked) {
		t.Fatalf("writer during reads = %v, want ErrLocked", err)
	}
}

func TestLockReleasedOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.db")
	w := mustOpen(t, path, nil)
	if err := w.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(path, nil)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	w2.Close()
}
