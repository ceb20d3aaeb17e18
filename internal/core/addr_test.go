package core

import (
	"hash/crc32"
	"testing"
	"testing/quick"
)

func TestCeilLog2(t *testing.T) {
	cases := []struct{ in, want uint32 }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := ceilLog2(c.in); got != c.want {
			t.Errorf("ceilLog2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want uint32 }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := nextPow2(c.in); got != c.want {
			t.Errorf("nextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestOaddrEncoding(t *testing.T) {
	o := makeOaddr(5, 123)
	if o.split() != 5 || o.pagenum() != 123 {
		t.Fatalf("oaddr roundtrip: split=%d pagenum=%d", o.split(), o.pagenum())
	}
	if o.String() != "5/123" {
		t.Fatalf("String = %q", o.String())
	}
	// Boundaries: split 31, page 2047.
	o = makeOaddr(31, 2047)
	if o.split() != 31 || o.pagenum() != 2047 {
		t.Fatalf("max oaddr: split=%d pagenum=%d", o.split(), o.pagenum())
	}
}

// testHeader builds a header with plausible spares for address tests.
func testHeader(spares []uint32) *header {
	h := &header{bsize: 256, bshift: 8, ffactor: 8, hdrPages: 1, highMask: 1}
	copy(h.spares[:], spares)
	if len(spares) > 0 {
		h.ovflPoint = uint32(len(spares) - 1)
	}
	return h
}

func TestBucketToPageNoSpares(t *testing.T) {
	h := testHeader(nil)
	// With no overflow pages, bucket b is page b + hdrPages.
	for b := uint32(0); b < 100; b++ {
		if got := h.bucketToPage(b); got != b+1 {
			t.Fatalf("bucketToPage(%d) = %d, want %d", b, got, b+1)
		}
	}
}

func TestBucketToPageWithSpares(t *testing.T) {
	// Paper example: overflow pages allocated at split points shift later
	// generations' primaries. spares cumulative: 2 pages at split 1,
	// 3 more at split 2.
	h := testHeader([]uint32{0, 2, 5})
	cases := []struct{ bucket, want uint32 }{
		{0, 1},         // before any spares
		{1, 1 + 1 + 0}, // log2(2)-1 = 0 -> spares[0]=0
		{2, 2 + 1 + 2}, // log2(3)-1 = 1 -> spares[1]=2
		{3, 3 + 1 + 2},
		{4, 4 + 1 + 5}, // log2(5)-1 = 2 -> spares[2]=5
		{7, 7 + 1 + 5},
	}
	for _, c := range cases {
		if got := h.bucketToPage(c.bucket); got != c.want {
			t.Errorf("bucketToPage(%d) = %d, want %d", c.bucket, got, c.want)
		}
	}
}

func TestOaddrToPage(t *testing.T) {
	h := testHeader([]uint32{0, 2, 5})
	// Overflow page s/p lives p pages after the primary of bucket 2^s-1.
	cases := []struct {
		o    oaddr
		want uint32
	}{
		{makeOaddr(1, 1), h.bucketToPage(1) + 1},
		{makeOaddr(1, 2), h.bucketToPage(1) + 2},
		{makeOaddr(2, 1), h.bucketToPage(3) + 1},
		{makeOaddr(2, 3), h.bucketToPage(3) + 3},
	}
	for _, c := range cases {
		if got := h.oaddrToPage(c.o); got != c.want {
			t.Errorf("oaddrToPage(%v) = %d, want %d", c.o, got, c.want)
		}
	}
}

// TestAddressingInjective verifies the core invariant of buddy-in-waiting
// addressing: no primary page and overflow page ever map to the same
// physical page, across random (but valid) spares configurations.
func TestAddressingInjective(t *testing.T) {
	f := func(rawSpares [8]uint16, nbits uint8) bool {
		// Build a valid cumulative spares array with up to 8 split
		// points, each adding < 2048 pages.
		h := testHeader(nil)
		points := int(nbits%8) + 1
		var cum uint32
		for i := 0; i < points; i++ {
			cum += uint32(rawSpares[i] % 200)
			h.spares[i] = cum
		}
		h.ovflPoint = uint32(points - 1)
		maxBucket := uint32(1)<<uint(points) - 1

		seen := make(map[uint32]string)
		for b := uint32(0); b <= maxBucket; b++ {
			pg := h.bucketToPage(b)
			if prev, dup := seen[pg]; dup {
				t.Logf("bucket %d and %s both map to page %d", b, prev, pg)
				return false
			}
			seen[pg] = "bucket"
		}
		for s := uint32(0); s < uint32(points); s++ {
			for pn := uint32(1); pn <= h.allocatedAt(s); pn++ {
				pg := h.oaddrToPage(makeOaddr(s, pn))
				if prev, dup := seen[pg]; dup {
					t.Logf("oaddr %d/%d and %s both map to page %d", s, pn, prev, pg)
					return false
				}
				seen[pg] = "ovfl"
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRoundtrip(t *testing.T) {
	h := header{
		lorder: lorderLittle, bsize: 1024, bshift: 10, ffactor: 32,
		maxBucket: 77, highMask: 127, lowMask: 63, ovflPoint: 7,
		lastFreed: uint32(makeOaddr(3, 9)), nkeys: 123456, hdrPages: 1,
		checkHash: 0xdeadbeef,
		syncEpoch: 42, flags: hdrDirty, pairSum: 0xfeedface12345678,
	}
	for i := 0; i <= 7; i++ {
		h.spares[i] = uint32(i * 3)
		h.bitmaps[i] = uint16(makeOaddr(uint32(i), 1))
	}
	h.bitmaps[0] = 0

	buf := make([]byte, headerSize)
	h.encode(buf)
	var got header
	if err := got.decode(buf); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != h {
		t.Fatalf("roundtrip mismatch:\n got  %+v\n want %+v", got, h)
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	var h header
	buf := make([]byte, headerSize)
	if err := h.decode(buf); err == nil {
		t.Fatal("decoded all-zero header")
	}
	// Valid header with each field corrupted in turn. The CRC is
	// recomputed after each corruption so the per-field validators are
	// exercised, not just the checksum.
	good := header{
		lorder: lorderLittle, bsize: 256, bshift: 8, ffactor: 8,
		maxBucket: 0, highMask: 1, lowMask: 0, hdrPages: 2,
	}
	corrupt := []func(b []byte){
		func(b []byte) { le.PutUint32(b[0:], 0x12345) },      // magic
		func(b []byte) { le.PutUint32(b[4:], 99) },           // version
		func(b []byte) { le.PutUint32(b[8:], 4321) },         // lorder
		func(b []byte) { le.PutUint32(b[12:], 100) },         // bsize not pow2
		func(b []byte) { le.PutUint32(b[16:], 3) },           // bshift mismatch
		func(b []byte) { le.PutUint32(b[20:], 0) },           // ffactor 0
		func(b []byte) { le.PutUint32(b[24:], 7) },           // maxBucket > highMask
		func(b []byte) { le.PutUint32(b[36:], 99) },          // ovflPoint
		func(b []byte) { le.PutUint64(b[44:], 1<<63) },       // negative nkeys
		func(b []byte) { le.PutUint32(b[52:], 9) },           // hdrPages
		func(b []byte) { le.PutUint32(b[hdrCrcOff-20:], 8) }, // unknown flags
	}
	for i, f := range corrupt {
		buf := make([]byte, headerSize)
		good.encode(buf)
		f(buf)
		le.PutUint32(buf[hdrCrcOff:], crc32.ChecksumIEEE(buf[:hdrCrcOff]))
		var h header
		if err := h.decode(buf); err == nil {
			t.Errorf("corruption %d: decode succeeded", i)
		}
	}
}

// A bit flip anywhere in the header without a matching CRC — a torn or
// corrupted header write — must be rejected by the checksum alone.
func TestHeaderRejectsTornWrite(t *testing.T) {
	good := header{
		lorder: lorderLittle, bsize: 256, bshift: 8, ffactor: 8,
		maxBucket: 0, highMask: 1, lowMask: 0, hdrPages: 2,
	}
	for off := 8; off < headerSize; off += 7 {
		buf := make([]byte, headerSize)
		good.encode(buf)
		buf[off] ^= 0x40
		var h header
		if err := h.decode(buf); err == nil {
			t.Errorf("bit flip at %d: decode succeeded", off)
		}
	}
}

func TestHeaderRejectsNonCumulativeSpares(t *testing.T) {
	h := header{
		lorder: lorderLittle, bsize: 256, bshift: 8, ffactor: 8,
		maxBucket: 3, highMask: 3, lowMask: 1, ovflPoint: 2, hdrPages: 2,
	}
	h.spares[0] = 5
	h.spares[1] = 3 // decreasing: invalid
	h.spares[2] = 3
	buf := make([]byte, headerSize)
	h.encode(buf)
	var got header
	if err := got.decode(buf); err == nil {
		t.Fatal("decoded header with non-cumulative spares")
	}
}
