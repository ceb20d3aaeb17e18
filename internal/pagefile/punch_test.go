package pagefile

import (
	"bytes"
	"testing"
)

// TestPunchAcrossStores: a memory store zero-fills the written pages in
// a punched range and leaves unwritten ones unwritten; a fault store
// forwards the punch; a crash store journals one zero-page write per
// punched page inside the store, so a cut can land between any two.
func TestPunchAcrossStores(t *testing.T) {
	page := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 64) }
	cs := NewCrash(NewMem(64))
	fs := NewFault(cs)
	for _, pn := range []uint32{0, 1, 2, 4} {
		if err := fs.WritePage(pn, page(byte(pn+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.PunchHole(1, 9); err != nil { // pages 1..4 lie inside the store
		t.Fatal(err)
	}
	evs := cs.Events()
	if len(evs) != 9 {
		t.Fatalf("journal has %d events, want 4 writes, a sync and 4 punched pages", len(evs))
	}
	for i, ev := range evs[5:] {
		if !ev.Punch || ev.Page != uint32(1+i) || !bytes.Equal(ev.Data, page(0)) {
			t.Fatalf("event %d = %+v, want a zero write of page %d marked Punch", 5+i, ev, 1+i)
		}
	}
	buf := make([]byte, 64)
	for pn, want := range map[uint32][]byte{0: page(1), 1: page(0), 2: page(0), 4: page(0)} {
		if err := fs.ReadPage(pn, buf); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("page %d after the punch = %v, %v", pn, buf[0], err)
		}
	}
	if err := fs.ReadPage(3, buf); err != ErrNotAllocated {
		t.Fatalf("unwritten page 3 after the punch: %v, want ErrNotAllocated", err)
	}
	if n := fs.NPages(); n != 5 {
		t.Fatalf("NPages after the punch = %d, want 5", n)
	}
	// A cut after the first punched page: page 1 is zeros, page 2 intact.
	ms, err := cs.Materialize(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for pn, want := range map[uint32][]byte{1: page(0), 2: page(3)} {
		if err := ms.ReadPage(pn, buf); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("cut mid-punch: page %d = %v, %v", pn, buf[0], err)
		}
	}
}
