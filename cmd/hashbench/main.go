// Command hashbench regenerates every table and figure in the paper's
// evaluation section ("A New Hashing Package for UNIX", Seltzer & Yigit,
// USENIX Winter 1991):
//
//	hashbench fig5            Figures 5a-c: page size x fill factor sweep
//	hashbench fig6            Figure 6: known vs dynamically grown table
//	hashbench fig7            Figure 7: buffer pool size sweep
//	hashbench fig8a           Figure 8a: dictionary DB vs ndbm and hsearch
//	hashbench fig8b           Figure 8b: password DB vs ndbm and hsearch
//	hashbench methods         hash vs btree under the same workload
//	hashbench ablate          ablations: split policy, hash functions
//	hashbench metrics         instrumented workload; writes
//	                          BENCH_metrics.json
//	hashbench misses          negative-lookup cost vs overflow-chain depth
//	                          with the per-bucket tag filter on vs off,
//	                          plus a cold scan through the vectored
//	                          chain read-ahead; writes BENCH_misses.json
//	hashbench all             fig5 through ablate
//
// Every figure is user CPU plus simulated I/O (pagefile.CostModel
// charges accumulated in IOTime; nothing sleeps). Whether a change made
// the shipped server faster or slower is benchmark/'s question (see
// benchmark/README.md), not this tool's.
//
// Flags:
//
//	-n N      dictionary size (default: the paper's 24474; smaller is
//	          faster and preserves the shapes)
//	-quick    shorthand for -n 4000
//	-check X  misses only: exit nonzero if a filtered depth-4 miss costs
//	          more than X times a depth-0 miss, or the scan phase
//	          prefetched no pages (the CI gate)
package main

import (
	"flag"
	"fmt"
	"os"

	"unixhash/internal/bench"
)

func main() {
	n := flag.Int("n", 0, "dictionary size (0 = the paper's 24474 keys)")
	quick := flag.Bool("quick", false, "use a 4000-key dictionary")
	check := flag.Float64("check", 0, "misses: fail if a filtered depth-4 miss costs more than this many depth-0 misses (0 = no gate)")
	flag.Usage = usage
	flag.Parse()
	if *quick && *n == 0 {
		*n = 4000
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	run := func(name string) error {
		switch name {
		case "fig5":
			res, err := bench.Fig5(*n, 1<<20, nil, nil)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "fig6":
			res, err := bench.Fig6(*n, nil)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "fig7":
			res, err := bench.Fig7(*n, nil)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "fig8a":
			res, err := bench.Fig8Dict(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "fig8b":
			res, err := bench.Fig8Passwd(0)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "methods":
			res, err := bench.Methods(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "ablate":
			sp, err := bench.AblateSplitPolicy(*n)
			if err != nil {
				return err
			}
			fmt.Print(sp)
			fmt.Println()
			hf, err := bench.AblateHashFuncs(*n)
			if err != nil {
				return err
			}
			count := *n
			if count <= 0 {
				count = 24474
			}
			fmt.Print(bench.FormatHashFuncs(hf, count))
		case "metrics":
			res, err := bench.MetricsRun(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_metrics.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("\nwrote BENCH_metrics.json")
		case "misses":
			res, err := bench.Misses(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_misses.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("\nwrote BENCH_misses.json")
			if *check > 0 {
				if err := res.Gate(*check); err != nil {
					return err
				}
				fmt.Printf("gate passed: filtered depth-4/depth-0 miss ratio %.2fx <= %.2fx, %d pages prefetched\n",
					res.Depth4Over0, *check, res.ScanPrefetchedPages)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	var names []string
	if cmd == "all" {
		names = []string{"fig5", "fig6", "fig7", "fig8a", "fig8b", "methods", "ablate"}
	} else {
		names = []string{cmd}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
			fmt.Println("================================================================")
			fmt.Println()
		}
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "hashbench %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: hashbench [-n N | -quick] {fig5|fig6|fig7|fig8a|fig8b|methods|ablate|metrics|misses|all}

Regenerates the evaluation figures of "A New Hashing Package for UNIX"
(Seltzer & Yigit, USENIX Winter 1991). See EXPERIMENTS.md for the
mapping between output and the paper's figures.
`)
	flag.PrintDefaults()
}
