package core

import (
	"bytes"
	"fmt"
	"testing"

	"unixhash/internal/pagefile"
)

// TestBigPairBoundary stores big pairs whose payload ends at, just
// before and just after a chain page's end — P = bsize-4 payload bytes
// per page, 8 of them on the first page the length prefix — with an
// empty and a one-byte value. A pair whose key exactly fills its chain's
// last page with nothing after it has a data range of zero length that
// starts past the chain's end; every path that reads, replaces, frees,
// checks or recovers the pair must accept it.
func TestBigPairBoundary(t *testing.T) {
	for _, bsize := range []int{256, 512, 4096} {
		p := bsize - bigHdrSize
		for _, klen := range []int{p - 9, p - 8, p - 7, 2*p - 8} {
			for _, dlen := range []int{0, 1} {
				t.Run(fmt.Sprintf("bsize%d/klen%d/dlen%d", bsize, klen, dlen), func(t *testing.T) {
					testBigPairBoundary(t, bsize, klen, dlen)
				})
			}
		}
	}
}

func testBigPairBoundary(t *testing.T, bsize, klen, dlen int) {
	ms := pagefile.NewMem(bsize)
	tbl := mustOpen(t, "", &Options{Store: ms, Bsize: bsize})
	k := bytes.Repeat([]byte{'k'}, klen)
	d1, d2 := bytes.Repeat([]byte{'a'}, dlen), bytes.Repeat([]byte{'b'}, dlen)
	if !tbl.isBig(klen, dlen) {
		t.Fatalf("a %d+%d-byte pair is not big", klen, dlen)
	}
	for i := 0; i < 20; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Put(k, d1); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, err := tbl.Get(k); err != nil || !bytes.Equal(got, d1) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if got, err := tbl.GetBuf(k, make([]byte, 0, 4)); err != nil || !bytes.Equal(got, d1) {
		t.Fatalf("GetBuf = %q, %v", got, err)
	}
	if err := tbl.Put(k, d2); err != nil {
		t.Fatalf("replacing Put: %v", err)
	}
	if got, err := tbl.Get(k); err != nil || !bytes.Equal(got, d2) {
		t.Fatalf("Get after replace = %q, %v", got, err)
	}
	seen := 0
	for it := tbl.Iter(); it.Next(); {
		if bytes.Equal(it.Key(), k) {
			seen++
			if !bytes.Equal(it.Value(), d2) {
				t.Fatalf("Iter value = %q", it.Value())
			}
		}
	}
	if seen != 1 {
		t.Fatalf("Iter saw the pair %d times", seen)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}

	// A dirty copy: the synced state holds the pair, and a later Put
	// durably marks the file dirty before the process is abandoned.
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put(key(99), val(99)); err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover("", &Options{Store: ms})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	if !rep.WasDirty || !rep.Recovered {
		t.Fatalf("Recover of a dirty copy reported %+v", rep)
	}
	if got, err := rec.Get(k); err != nil || !bytes.Equal(got, d2) {
		t.Fatalf("Get after Recover = %q, %v", got, err)
	}
	if err := rec.Delete(k); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("Check after Delete: %v", err)
	}
}
