package core

import (
	"fmt"

	"unixhash/internal/buffer"
)

// The heatmap is the table's one whole-table statistics walk: how its
// keys and bytes are spread over its buckets (per-bucket fill factor and
// overflow-chain depth) plus the paper's fill statistics summed from
// them, the observable side of the bucket-size/fill-factor tradeoff. It
// runs under the shared lock, one bucket read latch at a time (the path
// Get uses), and counts allocator pages under ovflMu alone, so db.Stats,
// /stats, /debug/heatmap and dbcli's stats and heatmap never stop readers
// or writers.

// BucketHeat is one bucket's row in the heatmap.
type BucketHeat struct {
	Bucket     uint32  `json:"bucket"`
	Entries    int     `json:"entries"`
	BigRefs    int     `json:"big_refs,omitempty"`
	ChainPages int     `json:"chain_pages"` // overflow pages past the primary
	Fill       float64 `json:"fill"`        // used/usable bytes over the chain's pages
	// Tag-filter occupancy on the primary page: tags in use (out of the
	// table-wide FilterTagCap) and the degraded states.
	FilterTags      int  `json:"filter_tags"`
	FilterSaturated bool `json:"filter_saturated,omitempty"`
	FilterInexact   bool `json:"filter_inexact,omitempty"`
}

// Heatmap is the full per-bucket report.
type Heatmap struct {
	Buckets  uint32  `json:"buckets"`
	Bsize    int     `json:"bsize"`
	NKeys    int64   `json:"nkeys"`
	MaxChain int     `json:"max_chain_pages"` // deepest overflow chain
	AvgFill  float64 `json:"avg_fill"`
	// EmptyBuckets counts buckets holding no entry. OverflowPages is the
	// sum of every bucket's ChainPages. BitmapPages are the allocator's
	// bitmap pages, and BigPairPages the allocated overflow pages no
	// chain holds: big-pair storage.
	EmptyBuckets  int `json:"empty_buckets"`
	OverflowPages int `json:"overflow_pages"`
	BitmapPages   int `json:"bitmap_pages"`
	BigPairPages  int `json:"big_pair_pages"`
	// ChainDist[i] counts buckets with exactly i overflow pages.
	ChainDist []int        `json:"chain_dist"`
	PerBucket []BucketHeat `json:"per_bucket"`
	// Tag-filter state across the table: per-page tag capacity, mean
	// occupancy (tags in use over capacity), and degraded-bucket counts.
	FilterTagCap    int     `json:"filter_tag_cap"`
	FilterOccupancy float64 `json:"filter_occupancy"`
	FilterSaturated int     `json:"filter_saturated_buckets"`
	FilterInexact   int     `json:"filter_inexact_buckets"`
	// Filter effectiveness so far (lifetime counters): of the Gets that
	// consulted a filter, the fraction answered "absent" with zero chain
	// reads (skip rate) and the fraction that probed and still missed
	// (false-positive rate).
	FilterSkips    int64   `json:"filter_skips"`
	FilterHits     int64   `json:"filter_hits"`
	FilterFPs      int64   `json:"filter_false_positives"`
	FilterSkipRate float64 `json:"filter_skip_rate"`
	FilterFPRate   float64 `json:"filter_fp_rate"`
}

// String renders a compact summary for the CLIs. The longest chain is
// counted in pages, the primary included (db.HashStats.MaxChain's unit);
// chain[d] counts buckets by overflow depth d.
func (h *Heatmap) String() string {
	s := fmt.Sprintf("buckets=%d keys=%d avgfill=%.0f%% maxchain=%d pages; by overflow depth:",
		h.Buckets, h.NKeys, 100*h.AvgFill, h.MaxChain+1)
	for depth, n := range h.ChainDist {
		if n > 0 {
			s += fmt.Sprintf(" chain[%d]=%d", depth, n)
		}
	}
	s += fmt.Sprintf("\nfilters: occupancy=%.0f%% (cap %d/bucket) saturated=%d inexact=%d skiprate=%.0f%% fprate=%.0f%%",
		100*h.FilterOccupancy, h.FilterTagCap, h.FilterSaturated, h.FilterInexact,
		100*h.FilterSkipRate, 100*h.FilterFPRate)
	return s
}

// Heatmap walks every bucket chain under the shared lock and reports
// per-bucket fill and chain depth with their table-wide summary. A
// writer waits only for the bucket being read; under writes the figures
// blend moments of the walk, on a quiesced table they are exact.
func (t *Table) Heatmap() (*Heatmap, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkOpen(); err != nil {
		return nil, err
	}
	maxB := t.geo.Load()
	h := &Heatmap{
		Buckets:   maxB + 1,
		Bsize:     int(t.hdr.bsize),
		NKeys:     t.nkeysA.Load(),
		PerBucket: make([]BucketHeat, 0, maxB+1),
	}
	usable := int(t.hdr.bsize) - slotBaseFor(int(t.hdr.bsize))
	var usedTotal, availTotal int64
	tagsTotal := 0
	for b := uint32(0); b <= maxB; b++ {
		row := BucketHeat{Bucket: b}
		used := 0
		pages := 0
		t.stripeFor(b).RLock()
		err := t.walkChain(nil, b, func(buf *buffer.Buf) (bool, error) {
			if buf.Addr.Ovfl {
				row.ChainPages++
			}
			pages++
			pg := page(buf.Page)
			if !buf.Addr.Ovfl {
				row.FilterTags = pg.fltCount()
				row.FilterSaturated = pg.fltSaturatedBit()
				row.FilterInexact = pg.fltInexactBit()
			}
			used += usable - pg.freeSpace()
			return false, pg.forEach(func(_ int, e entry) bool {
				row.Entries++
				if e.kind == entryBig {
					row.BigRefs++
				}
				return true
			})
		})
		t.stripeFor(b).RUnlock()
		if err != nil {
			return nil, err
		}
		if pages > 0 {
			row.Fill = float64(used) / float64(pages*usable)
		}
		usedTotal += int64(used)
		availTotal += int64(pages * usable)
		if row.Entries == 0 {
			h.EmptyBuckets++
		}
		h.OverflowPages += row.ChainPages
		if row.ChainPages > h.MaxChain {
			h.MaxChain = row.ChainPages
		}
		for len(h.ChainDist) <= row.ChainPages {
			h.ChainDist = append(h.ChainDist, 0)
		}
		h.ChainDist[row.ChainPages]++
		tagsTotal += row.FilterTags
		if row.FilterSaturated {
			h.FilterSaturated++
		}
		if row.FilterInexact {
			h.FilterInexact++
		}
		h.PerBucket = append(h.PerBucket, row)
	}
	if availTotal > 0 {
		h.AvgFill = float64(usedTotal) / float64(availTotal)
	}
	bitmaps, inUse, err := t.allocatedPages()
	if err != nil {
		return nil, err
	}
	// Chain pages are among those in use; the rest is big-pair storage.
	// Writers freeing pages between the walk and the count can leave
	// fewer in use than the walk chained, hence the clamp.
	h.BitmapPages = bitmaps
	h.BigPairPages = max(inUse-h.OverflowPages, 0)

	// Filter roll-up: per-page occupancy plus the lifetime skip and
	// false-positive rates from the table's counters.
	h.FilterTagCap = tagCapFor(int(t.hdr.bsize))
	if n := int(h.Buckets) * h.FilterTagCap; n > 0 {
		h.FilterOccupancy = float64(tagsTotal) / float64(n)
	}
	c := t.Counts()
	h.FilterSkips, h.FilterHits, h.FilterFPs = c.FilterSkips, c.FilterHits, c.FilterFalsePositives
	if consults := h.FilterSkips + h.FilterHits + h.FilterFPs; consults > 0 {
		h.FilterSkipRate = float64(h.FilterSkips) / float64(consults)
		h.FilterFPRate = float64(h.FilterFPs) / float64(consults)
	}
	return h, nil
}
