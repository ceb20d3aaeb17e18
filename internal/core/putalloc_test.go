package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"unixhash/internal/oplog"
)

// TestPutAllocs guards the write hot path's allocation budget, the
// companion to TestGetBufZeroAlloc. A steady-state small-pair replace
// must not allocate at all: the slot encode works in place on the pinned
// page, and fingerprint/metric updates use pre-resolved atomics. A
// big-pair replace is allowed a small fixed budget (chain fingerprint
// readback plus pool bookkeeping) but must stay flat regardless of value
// size — putBigPair streams segments straight into recycled pool buffers
// and keeps its chain-address list on the stack for chains up to 16
// pages, so the encode itself contributes zero.
func TestPutAllocs(t *testing.T) {
	t.Run("small-replace", func(t *testing.T) {
		tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 16})
		defer tbl.Close()
		const n = 200
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%04d", i))
			if err := tbl.Put(keys[i], []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		val := []byte("value2")
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			if err := tbl.Put(keys[i%n], val); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("small replace Put allocated %.1f times per op, want 0", allocs)
		}
		// The op-ledger entry point must cost nothing extra: with no
		// ledger attached the guards are dead nil checks, and with a live
		// ledger every charge is an atomic add into caller-owned fixed
		// storage — neither side of the gate may allocate.
		for name, led := range map[string]*oplog.Ledger{"nil-ledger": nil, "live-ledger": new(oplog.Ledger)} {
			led := led
			t.Run(name, func(t *testing.T) {
				led.StartOp(oplog.CmdPut, keys[0])
				allocs := testing.AllocsPerRun(500, func() {
					if err := tbl.PutOp(led, keys[i%n], val); err != nil {
						t.Fatal(err)
					}
					i++
				})
				if allocs != 0 {
					t.Fatalf("small replace PutOp (%s) allocated %.1f times per op, want 0", name, allocs)
				}
			})
		}
	})
	t.Run("big-replace", func(t *testing.T) {
		tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 16})
		defer tbl.Close()
		const n = 50
		keys := make([][]byte, n)
		val := bytes.Repeat([]byte("x"), 5000) // 6 chain pages, stack-backed addrs
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("big-key-%04d", i))
			if err := tbl.Put(keys[i], val); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if err := tbl.Put(keys[i%n], val); err != nil {
				t.Fatal(err)
			}
			i++
		})
		// Measured 5.0 at the time of writing; 8 leaves slack for runtime
		// variation without masking a regression back to per-page or
		// per-byte allocation (which lands in the hundreds).
		if allocs > 8 {
			t.Fatalf("big replace Put allocated %.1f times per op, want <= 8", allocs)
		}
	})
}

// TestSplitAllocs guards the split's allocation budget: splitBucket
// gathers a bucket's pairs, its chain and their bytes into the table's
// split scratch, so once the scratch has grown to the largest bucket a
// split allocates nothing. The table is a file behind the default pool:
// a split's new page takes a recycled frame and its eviction is a write
// to the file, where a memory store would allocate the page itself.
func TestSplitAllocs(t *testing.T) {
	tbl := mustOpen(t, filepath.Join(t.TempDir(), "split.db"), &Options{Bsize: 1024, Ffactor: 16})
	defer tbl.Close()
	for i := 0; i < 4000; i++ {
		if err := tbl.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("some value bytes")); err != nil {
			t.Fatal(err)
		}
	}
	split := func() {
		if ran, err := tbl.maybeExpand(false); err != nil || !ran {
			t.Fatalf("forced split: ran %v, %v", ran, err)
		}
	}
	for i := 0; i < 16; i++ { // grow the scratch
		split()
	}
	before := tbl.Geometry().MaxBucket
	if allocs := testing.AllocsPerRun(200, split); allocs != 0 {
		t.Fatalf("a split allocated %.1f times, want 0", allocs)
	}
	if got := tbl.Geometry().MaxBucket; got != before+201 {
		t.Fatalf("max bucket %d after 201 splits from %d", got, before)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBigGetBufAllocs: a GetBuf of a big pair into a dst that already
// has room allocates nothing. The key compare and the data read each
// borrow a page-sized scratch buffer from the table's pool, and handing
// it back must not box it.
func TestBigGetBufAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 16})
	defer tbl.Close()
	key, val := []byte("big-key"), bytes.Repeat([]byte("x"), 5000)
	if err := tbl.Put(key, val); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(val))
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if dst, err = tbl.GetBuf(key, dst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(dst, val) {
		t.Fatalf("GetBuf returned %d bytes, want the %d stored", len(dst), len(val))
	}
	if allocs != 0 {
		t.Fatalf("big-pair GetBuf allocated %.1f times per op, want 0", allocs)
	}
}
