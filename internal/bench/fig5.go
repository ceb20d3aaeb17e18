package bench

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"unixhash/internal/dataset"
)

// Figure 5 (a: system time, b: elapsed time, c: user time): the
// dictionary data set entered into and retrieved from a new table, with
// the ultimate table size known in advance and 1 MB of buffer space,
// sweeping the page size and the fill factor. The paper's conclusion:
// the greatest gains come from raising the fill factor until
// (average_pair_length + 4) * ffactor >= bsize (equation 1); the
// tradeoff works out most favourably at bsize 256, ffactor 8.

// Fig5Point is one (bsize, ffactor) cell.
type Fig5Point struct {
	Bsize   int
	Ffactor int
	Create  Timing
	Read    Timing
	Total   Timing
}

// Fig5Result holds the full sweep.
type Fig5Result struct {
	N           int
	BufferBytes int
	Bsizes      []int
	Ffactors    []int
	Points      []Fig5Point
}

// DefaultFig5Bsizes are the page sizes of the paper's Figure 5 curves.
var DefaultFig5Bsizes = []int{128, 256, 512, 1024, 4096, 8192}

// DefaultFig5Ffactors are the sweep's fill factors (1..128).
var DefaultFig5Ffactors = []int{1, 2, 4, 8, 16, 32, 64, 128}

// Fig5 runs the sweep. n <= 0 selects the paper's full dictionary.
func Fig5(n, bufBytes int, bsizes, ffactors []int) (*Fig5Result, error) {
	pairs := dataset.Dictionary(n)
	if bufBytes <= 0 {
		bufBytes = 1 << 20
	}
	if len(bsizes) == 0 {
		bsizes = DefaultFig5Bsizes
	}
	if len(ffactors) == 0 {
		ffactors = DefaultFig5Ffactors
	}
	res := &Fig5Result{N: len(pairs), BufferBytes: bufBytes, Bsizes: bsizes, Ffactors: ffactors}
	for _, bs := range bsizes {
		for _, ff := range ffactors {
			r, err := newHashRun(HashParams{Bsize: bs, Ffactor: ff, CacheSize: bufBytes, Nelem: len(pairs)})
			if err != nil {
				return nil, err
			}
			ct, err := r.createAll(pairs)
			if err != nil {
				return nil, fmt.Errorf("fig5 bsize=%d ff=%d create: %w", bs, ff, err)
			}
			rt, err := r.readAll(pairs)
			if err != nil {
				return nil, fmt.Errorf("fig5 bsize=%d ff=%d read: %w", bs, ff, err)
			}
			if err := r.close(); err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Fig5Point{
				Bsize: bs, Ffactor: ff, Create: ct, Read: rt, Total: ct.Add(rt),
			})
		}
	}
	return res, nil
}

func (r *Fig5Result) point(bs, ff int) *Fig5Point {
	for i := range r.Points {
		if r.Points[i].Bsize == bs && r.Points[i].Ffactor == ff {
			return &r.Points[i]
		}
	}
	return nil
}

// Best returns the most favourable cell — the paper's "tradeoff works
// out most favorably" — and every other cell that ties with it on
// simulated system time. Cells rank by simulated sys, then by page I/O
// count, then by the smaller bsize (and ffactor): all counted, so
// measured user time, which varies from run to run, never decides.
func (r *Fig5Result) Best() (best Fig5Point, ties []Fig5Point) {
	if len(r.Points) == 0 {
		return Fig5Point{}, nil
	}
	pts := slices.Clone(r.Points)
	slices.SortFunc(pts, func(a, b Fig5Point) int {
		return cmp.Or(cmp.Compare(a.Total.Sys, b.Total.Sys),
			cmp.Compare(a.Total.Reads+a.Total.Writes, b.Total.Reads+b.Total.Writes),
			cmp.Compare(a.Bsize, b.Bsize), cmp.Compare(a.Ffactor, b.Ffactor))
	})
	for _, p := range pts[1:] {
		if p.Total.Sys == pts[0].Total.Sys {
			ties = append(ties, p)
		}
	}
	return pts[0], ties
}

// String renders the three panels as fill-factor × bucket-size tables.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — dictionary data set (%d keys), %d KB buffer, table size known\n",
		r.N, r.BufferBytes/1024)
	panels := []struct {
		name string
		get  func(Fig5Point) float64
	}{
		{"5a: System time (seconds)", func(p Fig5Point) float64 { return p.Total.Sys.Seconds() }},
		{"5b: Elapsed time (seconds)", func(p Fig5Point) float64 { return p.Total.Elapsed.Seconds() }},
		{"5c: User time (seconds)", func(p Fig5Point) float64 { return p.Total.User.Seconds() }},
	}
	for _, panel := range panels {
		fmt.Fprintf(&b, "\n%s\n", panel.name)
		fmt.Fprintf(&b, "%8s", "ffactor")
		for _, bs := range r.Bsizes {
			fmt.Fprintf(&b, "%10d", bs)
		}
		b.WriteByte('\n')
		for _, ff := range r.Ffactors {
			fmt.Fprintf(&b, "%8d", ff)
			for _, bs := range r.Bsizes {
				if p := r.point(bs, ff); p != nil {
					fmt.Fprintf(&b, "%10.2f", panel.get(*p))
				} else {
					fmt.Fprintf(&b, "%10s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	best, ties := r.Best()
	fmt.Fprintf(&b, "\nBest cell (least simulated sys, then fewest page I/Os): bsize=%d ffactor=%d (paper: 256/8)\n",
		best.Bsize, best.Ffactor)
	for _, p := range ties {
		fmt.Fprintf(&b, "  ties on sys: bsize=%d ffactor=%d (%d page I/Os against %d)\n",
			p.Bsize, p.Ffactor, p.Total.Reads+p.Total.Writes, best.Total.Reads+best.Total.Writes)
	}
	return b.String()
}
