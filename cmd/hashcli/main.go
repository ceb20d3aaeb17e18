// Command hashcli is a small key/data database tool over the package's
// native interface — the kind of utility the paper imagines replacing
// ad-hoc application hash tables:
//
//	hashcli file.db put KEY VALUE      store (replacing)
//	hashcli file.db putnew KEY VALUE   store (fail if present)
//	hashcli file.db get KEY            print the value
//	hashcli file.db del KEY            delete
//	hashcli file.db has KEY            exit 0 if present, 1 if not
//	hashcli file.db list               print every key<TAB>value
//	hashcli file.db count              print the number of pairs
//	hashcli file.db load FILE          bulk import KEY<TAB>VALUE lines
//	                                   ('-' = stdin) via the batch writer
//	hashcli file.db compact NEW.db     rebuild into a right-sized file
//	hashcli -wal file.db txn OPS...    apply several ops atomically, where
//	                                   OPS is a sequence of put K V and
//	                                   del K groups; all-or-nothing, made
//	                                   durable by one log append + fsync
//
// Flags (creation-time parameters; ignored when the file exists):
//
//	-bsize N     bucket size (default 256)
//	-ffactor N   fill factor (default 8)
//	-nelem N     expected final element count
//	-cache N     buffer pool bytes (default 65536)
//	-wal         attach a write-ahead log (file.db.wal) and enable txn;
//	             a table that already has log checkpoints re-attaches
//	             its log automatically, flag or no flag
//
//	-telemetry ADDR   serve live telemetry (/metrics, /stats,
//	                  /debug/events, ...) for the duration of the
//	                  command; mainly useful to watch a long load.
//	                  The resolved address is printed to stderr.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/telemetry"
	"unixhash/internal/trace"
)

func main() {
	bsize := flag.Int("bsize", 0, "bucket size for a new table")
	ffactor := flag.Int("ffactor", 0, "fill factor for a new table")
	nelem := flag.Int("nelem", 0, "expected final element count for a new table")
	cache := flag.Int("cache", 0, "buffer pool size in bytes")
	useWAL := flag.Bool("wal", false, "attach a write-ahead log (FILE.wal); required to create a transactional table")
	telAddr := flag.String("telemetry", "", "serve telemetry on this address while the command runs")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		usage()
		os.Exit(2)
	}
	path, cmd := args[0], args[1]
	rest := args[2:]

	readonly := cmd == "get" || cmd == "has" || cmd == "list" || cmd == "count" || cmd == "compact"
	opts := &core.Options{
		Bsize: *bsize, Ffactor: *ffactor, Nelem: *nelem, CacheSize: *cache,
		ReadOnly: readonly, WAL: *useWAL,
	}
	if *telAddr != "" {
		opts.Trace = trace.New(0)
	}
	t, err := core.Open(path, opts)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := t.Close(); err != nil {
			fatal(err)
		}
	}()
	if *telAddr != "" {
		ts, err := telemetry.Serve(*telAddr, telemetry.Options{
			Registry: t.MetricsRegistry(),
			Tracer:   t.Tracer(),
			Stats:    func() (any, error) { return t.StatsDoc() },
			Heatmap:  func() (any, error) { return t.Heatmap() },
		})
		if err != nil {
			t.Close()
			fatal(err)
		}
		defer ts.Close() // before the table closes: its handlers read it
		fmt.Fprintf(os.Stderr, "hashcli: telemetry http://%s\n", ts.Addr())
	}

	need := func(n int) {
		if len(rest) != n {
			usage()
			os.Exit(2)
		}
	}
	switch cmd {
	case "put":
		need(2)
		if err := t.Put([]byte(rest[0]), []byte(rest[1])); err != nil {
			fatal(err)
		}
	case "putnew":
		need(2)
		if err := t.PutNew([]byte(rest[0]), []byte(rest[1])); err != nil {
			fatal(err)
		}
	case "get":
		need(1)
		v, err := t.Get([]byte(rest[0]))
		if errors.Is(err, core.ErrNotFound) {
			fmt.Fprintf(os.Stderr, "hashcli: %s: not found\n", rest[0])
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", v)
	case "del":
		need(1)
		if err := t.Delete([]byte(rest[0])); err != nil {
			fatal(err)
		}
	case "has":
		need(1)
		ok, err := t.Has([]byte(rest[0]))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case "list":
		need(0)
		w := bufio.NewWriter(os.Stdout)
		it := t.Iter()
		for it.Next() {
			fmt.Fprintf(w, "%s\t%s\n", it.Key(), it.Value())
		}
		if err := it.Err(); err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	case "count":
		need(0)
		fmt.Println(t.Len())
	case "load":
		need(1)
		in := os.Stdin
		if rest[0] != "-" {
			f, err := os.Open(rest[0])
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			in = f
		}
		// The batch writer copies each pair into its staging arena, so the
		// scanner's reused line buffer is safe to hand straight in. Pass
		// -nelem when creating the target to presize it for the import.
		w := t.NewBatchWriter(0)
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		n, lineno := 0, 0
		for sc.Scan() {
			lineno++
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			key, val, ok := bytes.Cut(line, []byte{'\t'})
			if !ok || len(key) == 0 {
				fatal(fmt.Errorf("load: %s line %d: want KEY<TAB>VALUE", rest[0], lineno))
			}
			if err := w.Add(key, val); err != nil {
				fatal(err)
			}
			n++
		}
		if err := sc.Err(); err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		fmt.Println(n)
	case "txn":
		// A sequence of `put K V` / `del K` groups, applied atomically:
		// either every op is durable after one log append + fsync, or
		// (on any parse or apply error) none of them happened. The verb
		// drives the transaction through the db.Txn interface — the
		// same surface dbcli and dbserver use — which the core
		// transaction satisfies directly.
		var x db.Txn
		x, err := t.Begin()
		if err != nil {
			fatal(err)
		}
		nops := 0
		for i := 0; i < len(rest); {
			switch rest[i] {
			case "put":
				if i+2 >= len(rest) {
					fatal(fmt.Errorf("txn: put needs KEY VALUE"))
				}
				if err := x.Put([]byte(rest[i+1]), []byte(rest[i+2])); err != nil {
					x.Rollback()
					fatal(err)
				}
				i += 3
			case "del":
				if i+1 >= len(rest) {
					fatal(fmt.Errorf("txn: del needs KEY"))
				}
				if err := x.Delete([]byte(rest[i+1])); err != nil {
					x.Rollback()
					fatal(err)
				}
				i += 2
			default:
				x.Rollback()
				fatal(fmt.Errorf("txn: want put K V or del K, got %q", rest[i]))
			}
			nops++
		}
		if err := x.Commit(); err != nil {
			fatal(err)
		}
		fmt.Printf("committed %d ops\n", nops)
	case "compact":
		need(1)
		g := t.Geometry()
		dst, err := core.Open(rest[0], &core.Options{
			Bsize: g.Bsize, Ffactor: g.Ffactor, Nelem: t.Len(), CacheSize: *cache,
		})
		if err != nil {
			fatal(err)
		}
		if err := t.Compact(dst); err != nil {
			dst.Close()
			fatal(err)
		}
		if err := dst.Close(); err != nil {
			fatal(err)
		}
		ng := g.MaxBucket + 1
		fmt.Printf("compacted %d keys into %s (%d buckets before)\n", t.Len(), rest[0], ng)
	default:
		usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hashcli: %v\n", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hashcli [flags] file.db {put K V|putnew K V|get K|del K|has K|list|count|load FILE|compact NEW|txn {put K V|del K}...}`)
	flag.PrintDefaults()
}
