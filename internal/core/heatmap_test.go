package core

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestHeatmapEmpty(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()
	h, err := tbl.Heatmap()
	if err != nil {
		t.Fatal(err)
	}
	if h.NKeys != 0 || h.Buckets != 1 || h.OverflowPages != 0 || h.EmptyBuckets != 1 {
		t.Fatalf("empty table heatmap = %+v", h)
	}
	if !strings.Contains(h.String(), "keys=0") {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHeatmapTracksLoad(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()
	for i := 0; i < 2000; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tbl.Heatmap()
	if err != nil {
		t.Fatal(err)
	}
	if h.NKeys != 2000 {
		t.Fatalf("NKeys = %d", h.NKeys)
	}
	// The fill factor bounds average keys per page near 8.
	if kpp := float64(h.NKeys) / float64(int(h.Buckets)+h.OverflowPages); kpp < 2 || kpp > 10 {
		t.Fatalf("keys/page = %.2f with ffactor 8", kpp)
	}
	if h.AvgFill <= 0 || h.AvgFill > 1 {
		t.Fatalf("AvgFill = %.2f", h.AvgFill)
	}
	if h.MaxChain+1 < 1 {
		t.Fatalf("longest chain = %d pages", h.MaxChain+1)
	}
}

func TestHeatmapSeparatesBigPairPages(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()
	for i := 0; i < 100; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Put([]byte("big"), bytes.Repeat([]byte("B"), 10000)); err != nil {
		t.Fatal(err)
	}
	h, err := tbl.Heatmap()
	if err != nil {
		t.Fatal(err)
	}
	// 10 KB on 252-byte payload pages: ~40 pages.
	if h.BigPairPages < 30 {
		t.Fatalf("BigPairPages = %d, want ~40", h.BigPairPages)
	}
	if h.BitmapPages < 1 {
		t.Fatalf("BitmapPages = %d", h.BitmapPages)
	}
}

func TestHeatmapChainLength(t *testing.T) {
	// One bucket, no splits: the chain must grow and MaxChain see it.
	tbl := mustOpen(t, "", &Options{Bsize: 64, Ffactor: 1000, ControlledOnly: true})
	defer tbl.Close()
	for i := 0; i < 200; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tbl.Heatmap()
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets != 1 {
		t.Fatalf("Buckets = %d", h.Buckets)
	}
	if h.MaxChain+1 < 10 {
		t.Fatalf("longest chain = %d pages for 200 keys on 64-byte pages", h.MaxChain+1)
	}
	if h.OverflowPages != h.MaxChain {
		t.Fatalf("OverflowPages = %d, MaxChain = %d overflow pages", h.OverflowPages, h.MaxChain)
	}
}

// TestStatsWalksLeaveChainCounters: the chain counters describe the
// walks operations make (their mean overflow depth per walk), so the
// statistics walks of Heatmap and Dump must not add to them.
func TestStatsWalksLeaveChainCounters(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 40, ControlledOnly: true})
	defer tbl.Close()
	for i := 0; i < 3000; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tbl.Heatmap()
	if err != nil {
		t.Fatal(err)
	}
	if h.OverflowPages == 0 {
		t.Fatal("the table has no overflow chains to walk")
	}
	pages, walks := tbl.n.chainPages.Load(), tbl.n.chainWalks.Load()
	if _, err := tbl.Heatmap(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Dump(io.Discard, true); err != nil {
		t.Fatal(err)
	}
	if p, w := tbl.n.chainPages.Load(), tbl.n.chainWalks.Load(); p != pages || w != walks {
		t.Fatalf("Heatmap and Dump moved the chain counters: pages %d -> %d, walks %d -> %d", pages, p, walks, w)
	}
}
