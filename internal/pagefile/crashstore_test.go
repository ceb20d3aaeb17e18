package pagefile

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// Regression: the Store contract says Close syncs the file before
// closing it. FileStore.Close used to skip the sync entirely.
func TestFileStoreCloseSyncs(t *testing.T) {
	fs, err := OpenFile(filepath.Join(t.TempDir(), "close.pg"), 64, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WritePage(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	before := fs.Stats().Snapshot().Syncs
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().Snapshot().Syncs; got != before+1 {
		t.Fatalf("Close performed %d syncs, want 1", got-before)
	}
	// A second Close is a no-op and must not sync again.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().Snapshot().Syncs; got != before+1 {
		t.Fatalf("double Close synced again (%d syncs)", got-before)
	}
}

// Regression: FaultStore.Sync used to pass page 0 to the fault matcher,
// so a fault targeted at page 0 spuriously fired on syncs. Sync faults
// are page-less: a page-targeted fault must never match a sync, and a
// sync fault must fire regardless of its Page field.
func TestFaultStoreSyncIsPageless(t *testing.T) {
	errBoom := errors.New("boom")
	fs := NewFault(NewMem(64))

	// A write fault aimed at page 0 must not block syncs (distinct ops),
	// and a read fault aimed at page 0 must not either.
	fs.Inject(Fault{Op: OpWrite, After: 1, Err: errBoom, Page: 0})
	fs.Inject(Fault{Op: OpRead, After: 1, Err: errBoom, Page: 0})
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync blocked by page-targeted fault: %v", err)
	}

	// A sync fault with an arbitrary Page still fires: Page is ignored.
	fs.Clear()
	fs.Inject(Fault{Op: OpSync, After: 1, Err: errBoom, Page: 12345})
	if err := fs.Sync(); !errors.Is(err, errBoom) {
		t.Fatalf("sync fault with stray Page field did not fire: %v", err)
	}
}

// Injected faults count as attempted — and failed — I/O, so
// fault-injection runs report what the caller asked for.
func TestStatsCountFaultedAttempts(t *testing.T) {
	errBoom := errors.New("boom")
	inner := NewMem(64)
	fs := NewFault(inner)
	buf := make([]byte, 64)

	if err := fs.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	fs.Inject(Fault{Op: OpWrite, After: 2, Err: errBoom, Page: AnyPage})
	fs.Inject(Fault{Op: OpSync, After: 1, Err: errBoom})
	if err := fs.WritePage(1, buf); !errors.Is(err, errBoom) {
		t.Fatalf("write = %v, want boom", err)
	}
	if err := fs.Sync(); !errors.Is(err, errBoom) {
		t.Fatalf("sync = %v, want boom", err)
	}

	s := inner.Stats().Snapshot()
	if s.Writes != 2 {
		t.Fatalf("Writes = %d, want 2 (attempts, not successes)", s.Writes)
	}
	if s.Syncs != 1 {
		t.Fatalf("Syncs = %d, want 1", s.Syncs)
	}
	if s.Errors != 2 {
		t.Fatalf("Errors = %d, want 2", s.Errors)
	}
	if got := s.String(); !bytes.Contains([]byte(got), []byte("errors=2")) {
		t.Fatalf("String does not surface errors: %q", got)
	}
}

func TestCrashStoreJournalAndMaterialize(t *testing.T) {
	cs := NewCrash(NewMem(64))
	page := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 64) }

	if err := cs.WritePage(0, page(1)); err != nil {
		t.Fatal(err)
	}
	if err := cs.WritePage(1, page(2)); err != nil {
		t.Fatal(err)
	}
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := cs.WritePage(0, page(3)); err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 4 {
		t.Fatalf("journal has %d events, want 4", cs.Len())
	}

	// Prefix 0: nothing survives.
	ms, err := cs.Materialize(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NPages() != 0 {
		t.Fatalf("empty prefix has %d pages", ms.NPages())
	}

	// Prefix 2: both initial writes, no rewrite of page 0.
	ms, err = cs.Materialize(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := ms.ReadPage(0, buf); err != nil || !bytes.Equal(buf, page(1)) {
		t.Fatalf("prefix 2 page 0 = %v %v", buf[0], err)
	}

	// Full prefix: the rewrite of page 0 lands.
	ms, err = cs.Materialize(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ReadPage(0, buf); err != nil || !bytes.Equal(buf, page(3)) {
		t.Fatalf("full prefix page 0 = %v %v", buf[0], err)
	}

	// Torn final write: first 10 bytes new, tail keeps the old content.
	ms, err = cs.Materialize(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	want := page(1)
	copy(want[:10], page(3))
	if !bytes.Equal(buf, want) {
		t.Fatalf("torn page 0 = %v", buf)
	}

	// Torn write to a never-written page: tail is zeros.
	cs2 := NewCrash(NewMem(64))
	if err := cs2.WritePage(5, page(7)); err != nil {
		t.Fatal(err)
	}
	ms, err = cs2.Materialize(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ReadPage(5, buf); err != nil {
		t.Fatal(err)
	}
	want = make([]byte, 64)
	copy(want[:3], page(7))
	if !bytes.Equal(buf, want) {
		t.Fatalf("torn fresh page = %v", buf)
	}

	// Out-of-range prefixes are rejected.
	if _, err := cs.Materialize(5, 0); err == nil {
		t.Fatal("materialized past the journal end")
	}
	if _, err := cs.Materialize(-1, 0); err == nil {
		t.Fatal("materialized a negative prefix")
	}
}
