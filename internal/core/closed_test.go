package core

import (
	"errors"
	"strings"
	"testing"
)

// Closed-handle behaviour: every entry point fails cleanly, including
// iterators and maintenance operations created before the close.
func TestOperationsOnClosedTable(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	tbl.Put([]byte("k"), []byte("v"))
	it := tbl.Iter() // created while open
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	if it.Next() {
		t.Fatal("iterator advanced on a closed table")
	}
	if !errors.Is(it.Err(), ErrClosed) {
		t.Fatalf("iterator error = %v, want ErrClosed", it.Err())
	}
	if err := tbl.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync = %v", err)
	}
	if err := tbl.Check(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Check = %v", err)
	}
	if _, err := tbl.Heatmap(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Heatmap = %v", err)
	}
	var sb strings.Builder
	if err := tbl.Dump(&sb, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Dump = %v", err)
	}
	if _, err := tbl.Has([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Has = %v", err)
	}
}

func TestSyncOnReadOnlyIsNoop(t *testing.T) {
	path := t.TempDir() + "/ro.db"
	w := mustOpen(t, path, nil)
	w.Put([]byte("k"), []byte("v"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, path, &Options{ReadOnly: true})
	defer r.Close()
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync on read-only = %v", err)
	}
	// Close on read-only must not attempt writes either.
	if err := r.Close(); err != nil {
		t.Fatalf("Close on read-only = %v", err)
	}
}

func TestGeometryAccessors(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 512, Ffactor: 16, Nelem: 100})
	defer tbl.Close()
	g := tbl.Geometry()
	if g.Bsize != 512 || g.Ffactor != 16 {
		t.Fatalf("Geometry = %+v", g)
	}
	if tbl.Pool() == nil || tbl.Store() == nil {
		t.Fatal("accessors returned nil")
	}
	if tbl.Store().PageSize() != 512 {
		t.Fatalf("store page size = %d", tbl.Store().PageSize())
	}
}
