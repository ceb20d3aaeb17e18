package wal

import (
	"bytes"
	"io"
	"math/bits"
	"testing"
)

// TestMemDeviceAppendAmortised pins the growth policy: 20 000 tail
// appends (the shape of a commit stream) must reallocate O(log n) times,
// not once per append. The reallocation count is read off the capacity:
// it changes only when the buffer moved.
func TestMemDeviceAppendAmortised(t *testing.T) {
	const n = 20_000
	d := NewMemDevice()
	rec := bytes.Repeat([]byte{0xab}, 351) // a three-op commit's frames
	reallocs, lastCap := 0, 0
	var off int64
	for i := 0; i < n; i++ {
		if _, err := d.WriteAt(rec, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(rec))
		if c := cap(d.buf); c != lastCap {
			reallocs++
			lastCap = c
		}
	}
	// Doubling would need ~log2(total/first) moves; Go's append grows by
	// 1.25x past 256 KiB, so allow a constant factor over log2.
	limit := 8 * bits.Len(uint(off))
	if reallocs > limit {
		t.Fatalf("%d appends reallocated %d times, want <= %d (O(log n))", n, reallocs, limit)
	}
	if sz, _ := d.Size(); sz != off {
		t.Fatalf("Size = %d, want %d", sz, off)
	}
	// AllocsPerRun sees the same thing from the allocator's side: a tail
	// append into spare capacity allocates nothing.
	if a := testing.AllocsPerRun(100, func() {
		d.WriteAt(rec, off)
		off += int64(len(rec))
	}); a > 0.1 {
		t.Fatalf("tail append allocates %.2f times per call", a)
	}
}

// TestMemDeviceTruncateRegrowZeroes: bytes cut off by Truncate must not
// reappear when a later write or zero-extension grows the device back
// over the retained capacity.
func TestMemDeviceTruncateRegrowZeroes(t *testing.T) {
	d := NewMemDevice()
	d.WriteAt(bytes.Repeat([]byte{0xff}, 64), 0)
	if err := d.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if err := d.Truncate(32); err != nil { // zero-extend inside capacity
		t.Fatal(err)
	}
	d.WriteAt([]byte{1, 2}, 48) // sparse write past the end
	got := d.Bytes()
	want := append(bytes.Repeat([]byte{0xff}, 8), make([]byte, 40)...)
	want = append(want, 1, 2)
	if !bytes.Equal(got, want) {
		t.Fatalf("regrown device = %x\nwant              %x", got, want)
	}
	p := make([]byte, 4)
	if n, err := d.ReadAt(p, 48); n != 2 || err != io.EOF {
		t.Fatalf("short ReadAt = %d, %v; want 2, EOF", n, err)
	}
}
