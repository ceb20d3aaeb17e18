// Command hashdump inspects a hash file produced by the package: the
// header geometry, the spares array, each bucket's chain shape and page
// fill, and overflow bitmap occupancy.
//
//	hashdump [-v] [-stats] [-check] [-recover] [-metrics] [-heatmap] file.db
//
// With -v every entry's key is listed. With -heatmap the per-bucket fill
// factor and overflow-chain depth are reported through the table's one
// read-locked statistics walk, the one behind the live /debug/heatmap
// endpoint, db.Stats and STATS: a summary line, the chain depth
// distribution, a ten-bin fill histogram, and (with -v) one row per
// bucket. With -stats only aggregate statistics are printed: that walk's
// summary (empty buckets, chain, big-pair and bitmap pages, the
// chain-length distribution, page fill) with the header geometry and the
// buffer-pool hit ratio of the scan. With
// -check the file is verified: a cleanly synced file gets the full
// structural check (key placement, chain and bitmap consistency, leaks,
// pair fingerprint); a file left dirty by a crash gets a dry-run of
// recovery, reporting whether its last-synced state is intact. With
// -recover a dirty file is restored to its last-synced state and
// stamped clean; a table with a write-ahead log (file.db.wal attaches
// automatically) then has its committed transactions past the last
// checkpoint replayed, and the report counts them. A WAL-managed file
// whose log holds unapplied commits is flagged in the default and
// -stats views. With -metrics the file's pairs are read back and
// replayed through an instrumented in-memory table sharing one metric
// registry, and the full registry (gets, splits, buffer hits, sync
// latency buckets, ...) is printed in the Prometheus text format. Any
// problem exits nonzero.
package main

import (
	"flag"
	"fmt"
	"os"

	"unixhash/internal/core"
	"unixhash/internal/metrics"
)

func main() {
	verbose := flag.Bool("v", false, "list every entry's key")
	statsOnly := flag.Bool("stats", false, "print aggregate statistics only")
	check := flag.Bool("check", false, "verify structural and durability invariants and exit")
	doRecover := flag.Bool("recover", false, "recover a crashed file to its last-synced state")
	promDump := flag.Bool("metrics", false, "replay the file through an instrumented table and print Prometheus-text metrics")
	heatmap := flag.Bool("heatmap", false, "print per-bucket fill factor and chain depth (same walker as /debug/heatmap)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hashdump [-v] [-stats] [-check] [-recover] [-metrics] [-heatmap] file.db")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)

	if *doRecover {
		t, rep, err := core.Recover(path, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hashdump: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep)
		if err := t.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hashdump: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *promDump {
		if err := dumpMetrics(path); err != nil {
			fmt.Fprintf(os.Stderr, "hashdump: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Open tolerating the dirty flag: hashdump is an inspection tool, and
	// -check must be able to diagnose a crashed file rather than refuse it.
	t, err := core.Open(path, &core.Options{ReadOnly: true, AllowDirty: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hashdump: %v\n", err)
		os.Exit(1)
	}
	defer t.Close()

	if *check {
		if err := t.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "hashdump: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("ok")
		return
	}
	if g := t.Geometry(); g.Dirty {
		fmt.Fprintf(os.Stderr, "hashdump: warning: %s was not cleanly closed; contents may predate the crash (run -recover)\n", path)
	} else if g.WalPending > 0 {
		// The header is clean but the write-ahead log holds acknowledged
		// commits that never reached the pages: this view is the last
		// checkpoint, not the last commit.
		fmt.Fprintf(os.Stderr, "hashdump: warning: %s has %d committed transactions in its log not yet in the pages (run -recover)\n", path, g.WalPending)
	}
	if *heatmap {
		if err := printHeatmap(t, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "hashdump: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *statsOnly {
		g := t.Geometry()
		h, err := t.Heatmap()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hashdump: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("keys:            %d\n", g.NKeys)
		fmt.Printf("buckets:         %d (%d empty)\n", h.Buckets, h.EmptyBuckets)
		fmt.Printf("bucket size:     %d\n", g.Bsize)
		fmt.Printf("fill factor:     %d\n", g.Ffactor)
		fmt.Printf("overflow pages:  %d chain, %d big-pair, %d bitmap\n",
			h.OverflowPages, h.BigPairPages, h.BitmapPages)
		fmt.Printf("split point:     %d\n", g.OvflPoint)
		if g.WalLSN != 0 || g.WalPending > 0 {
			fmt.Printf("wal checkpoint:  lsn %d (%d commits pending replay)\n", g.WalLSN, g.WalPending)
		}
		fmt.Printf("longest chain:   %d pages\n", h.MaxChain+1)
		fmt.Printf("chain lengths:  ")
		for i, n := range h.ChainDist {
			fmt.Printf(" %dp:%d", i+1, n)
		}
		fmt.Println()
		fmt.Printf("keys/page:       %.2f\n", float64(h.NKeys)/float64(int(h.Buckets)+h.OverflowPages))
		fmt.Printf("page fill:       %.0f%%\n", 100*h.AvgFill)
		c := t.Pool().Counters()
		fmt.Printf("buffer pool:     %.1f%% hit ratio over this scan (%d hits, %d misses)\n",
			100*c.HitRatio(), c.Hits, c.Misses)
		return
	}
	if err := t.Dump(os.Stdout, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "hashdump: %v\n", err)
		os.Exit(1)
	}
}

// printHeatmap renders core.Table.Heatmap — the exact payload the live
// /debug/heatmap endpoint serves — for offline inspection: summary,
// chain-depth distribution, a ten-bin fill histogram, and with verbose
// one row per bucket.
func printHeatmap(t *core.Table, verbose bool) error {
	h, err := t.Heatmap()
	if err != nil {
		return err
	}
	fmt.Println(h)
	var bins [10]int
	for _, row := range h.PerBucket {
		b := int(row.Fill * 10)
		if b > 9 {
			b = 9
		}
		bins[b]++
	}
	fmt.Println("fill histogram:")
	for i, n := range bins {
		fmt.Printf("  %3d-%3d%%  %6d  %s\n", i*10, (i+1)*10, n, bar(n, len(h.PerBucket)))
	}
	if verbose {
		fmt.Println("bucket  entries  bigrefs  chain  fill  filter")
		for _, row := range h.PerBucket {
			flt := fmt.Sprintf("%d/%d", row.FilterTags, h.FilterTagCap)
			if row.FilterSaturated {
				flt += " sat"
			} else if row.FilterInexact {
				flt += " inex"
			}
			fmt.Printf("%6d  %7d  %7d  %5d  %3.0f%%  %s\n",
				row.Bucket, row.Entries, row.BigRefs, row.ChainPages, 100*row.Fill, flt)
		}
	}
	return nil
}

// bar renders n/total as a proportional strip of hash marks.
func bar(n, total int) string {
	if total == 0 {
		return ""
	}
	w := n * 40 / total
	if n > 0 && w == 0 {
		w = 1
	}
	return "########################################"[:w]
}

// dumpMetrics opens path read-only and an anonymous in-memory table,
// both exporting into one shared registry (same-named series resolve to
// the same counters). Every pair is read from the file and replayed
// into the memory table — real gets, puts, splits and overflow traffic
// — the replay is synced, and the aggregated registry is printed in the
// Prometheus text exposition format.
func dumpMetrics(path string) error {
	reg := metrics.New()
	src, err := core.Open(path, &core.Options{ReadOnly: true, AllowDirty: true, Metrics: reg})
	if err != nil {
		return err
	}
	defer src.Close()
	g := src.Geometry()
	mem, err := core.Open("", &core.Options{Bsize: g.Bsize, Ffactor: g.Ffactor, Metrics: reg})
	if err != nil {
		return err
	}
	defer mem.Close()

	// The replay goes through the batch writer, so the dump also reports
	// the batch-pipeline series (batch puts, presizes, group joins) a
	// production ingest would produce.
	w := mem.NewBatchWriter(0)
	it := src.Iter()
	for it.Next() {
		if _, err := src.Get(it.Key()); err != nil {
			return err
		}
		if err := w.Add(it.Key(), it.Value()); err != nil {
			return err
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := mem.Sync(); err != nil {
		return err
	}
	return reg.WriteProm(os.Stdout)
}
