// Command dbcli is the package's key/data database tool: every verb
// goes through the db interface over a single hash table file — the kind
// of utility the paper imagines replacing ad-hoc application hash
// tables.
//
//	dbcli file.db put KEY VALUE      store (replacing)
//	dbcli file.db putnew KEY VALUE   store (fail if present)
//	dbcli file.db get KEY            print the value
//	dbcli file.db del KEY            delete
//	dbcli file.db has KEY            exit 0 if present, 1 if not
//	dbcli file.db list               print every key<TAB>value
//	dbcli file.db count              print the number of pairs
//	dbcli file.db load FILE          bulk import KEY<TAB>VALUE lines
//	dbcli file.db compact NEW.db     rebuild into a right-sized file
//	dbcli file.db stats | metrics | verify
//	dbcli [-v] file.db heatmap | dump   per-bucket fill, page layout
//	dbcli file.db recover            restore a crashed file, replay its log
//	dbcli -wal file.db txn OPS...    apply several ops atomically
//	dbcli hashmon URL [INTERVAL [COUNT]]   watch a live telemetry endpoint
//
// Flags (the creation-time ones are ignored when the file exists; the
// names are dbserver's):
//
//	-bsize N          bucket size for a new table (default 256)
//	-ffactor N        fill factor for a new table (default 8)
//	-nelem N          expected final element count
//	-cache N          buffer pool bytes (default 65536)
//	-v                heatmap: one row per bucket; dump: every key
//	-wal              attach a write-ahead log (file.db.wal), enabling
//	                  txn; a table that already has log checkpoints
//	                  re-attaches its log automatically, flag or no flag
//	-telemetry ADDR   serve live telemetry (/metrics, /stats,
//	                  /debug/events, ...) while the command runs; mainly
//	                  useful to watch a long load. The resolved address
//	                  is printed to stderr.
//
// load reads KEY<TAB>VALUE lines from FILE ('-' for stdin) and imports
// them through the batched write pipeline: records are staged in
// PutBatch-sized chunks, so the table pays one latch epoch and one
// deferred-split pass per chunk instead of per record; pass -nelem when
// creating the target to presize it. The count of imported records is
// printed on completion.
//
// compact copies the live pairs into a new file with the same bucket
// size and fill factor, presized for the current key count (db.Compact).
//
// verify checks a file without modifying it, and diagnoses files left
// dirty by a crash (is the last-synced state intact?), exiting nonzero
// on any problem. recover restores a crash-dirty file to its last-synced
// state and stamps it clean, then replays the committed transactions its
// write-ahead log holds past the last checkpoint, and reports both.
//
// stats, heatmap and dump open a dirty file too, and warn on stderr when
// its pages may predate its last commit. stats prints the db.Stats view
// (keys, pages, cache hit ratio, chain lengths, fill and operation
// counters). heatmap prints what /debug/heatmap serves: a summary, a
// ten-bin fill histogram and, with -v, one row per bucket. dump prints
// the page layout (header geometry, spares, bitmap occupancy, each
// bucket chain), with -v every key. metrics opens the file with a metric
// registry, runs the statistics scan, and prints the registry in the
// Prometheus text format.
//
// txn applies a sequence of put K V / del K groups as one atomic
// transaction through the write-ahead log: durable after a single log
// append + fsync, all-or-nothing on error.
//
// hashmon polls a running telemetry server's /stats endpoint (dbserver
// -telemetry, dbcli -telemetry, or any db.ServeTelemetry /
// telemetry.Serve caller) every INTERVAL (default 2s) and renders the
// numeric fields that changed since the previous poll as deltas — a
// portable poor-man's top for a table under load. When the server also
// exposes /debug/oplog (dbserver does, its op ledger being on unless
// run with -oplog=false), each tick appends the per-command phase
// attribution: end-to-end p50/p99 per command plus its heaviest phases,
// so a latency regression names its phase in the same breath. COUNT
// limits the number of polls (default: until interrupted).
// URL may be a bare host:port; the /stats path is implied.
//
// A file another process holds is refused, naming it; so is a shard file
// of a dbserver directory, whose commits live in the directory's log.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
	"unixhash/internal/trace"
)

func main() {
	bsize := flag.Int("bsize", 0, "bucket size for a new table")
	ffactor := flag.Int("ffactor", 0, "fill factor for a new table")
	nelem := flag.Int("nelem", 0, "expected final element count for a new table")
	cache := flag.Int("cache", 0, "buffer pool size in bytes")
	useWAL := flag.Bool("wal", false, "attach a write-ahead log (FILE.wal); required to create a transactional table")
	telAddr := flag.String("telemetry", "", "serve telemetry on this address while the command runs")
	verbose := flag.Bool("v", false, "heatmap: one row per bucket; dump: list every key")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) >= 2 && args[0] == "hashmon" {
		if err := hashmon(args[1:]); err != nil {
			fatal(err)
		}
		return
	}
	if len(args) < 2 {
		usage()
		os.Exit(2)
	}
	path, cmd := args[0], args[1]
	rest := args[2:]
	need := func(n int) {
		if len(rest) != n {
			usage()
			os.Exit(2)
		}
	}

	opts := &core.Options{
		Bsize: *bsize, Ffactor: *ffactor, Nelem: *nelem, CacheSize: *cache, WAL: *useWAL,
	}
	if cmd == "recover" {
		// Before any db.Open: opening refuses the dirty file recover is for.
		need(0)
		t, rep, err := core.Recover(path, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep)
		if err := t.Close(); err != nil {
			fatal(err)
		}
		return
	}
	switch cmd {
	case "get", "has", "list", "count", "compact":
		opts.ReadOnly = true
	case "verify", "stats", "metrics", "heatmap", "dump":
		// Inspection verbs must be able to open a file a crashed writer
		// left dirty, and must not modify it.
		opts.ReadOnly, opts.AllowDirty = true, true
	}
	var reg *metrics.Registry
	if cmd == "metrics" {
		reg = metrics.New()
		opts.Metrics = reg
	}
	if *telAddr != "" {
		opts.Trace = trace.New(0)
	}
	d, err := db.Open(path, db.Hash, &db.Config{Hash: opts})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			fatal(err)
		}
	}()
	if *telAddr != "" {
		ts, err := db.ServeTelemetry(d, *telAddr, nil)
		if err != nil {
			d.Close()
			fatal(err)
		}
		defer ts.Close() // before the database closes: its handlers read it
		fmt.Fprintf(os.Stderr, "dbcli: telemetry http://%s\n", ts.Addr())
	}

	switch cmd {
	case "put":
		need(2)
		if err := d.Put([]byte(rest[0]), []byte(rest[1])); err != nil {
			fatal(err)
		}
	case "putnew":
		need(2)
		if err := d.PutNew([]byte(rest[0]), []byte(rest[1])); err != nil {
			fatal(err)
		}
	case "load":
		need(1)
		n, err := load(d, rest[0])
		if err != nil {
			fatal(err)
		}
		fmt.Println(n)
	case "get":
		need(1)
		v, err := d.Get([]byte(rest[0]))
		if errors.Is(err, db.ErrNotFound) {
			fmt.Fprintf(os.Stderr, "dbcli: %s: not found\n", rest[0])
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", v)
	case "has":
		need(1)
		_, err := d.Get([]byte(rest[0]))
		if errors.Is(err, db.ErrNotFound) {
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
	case "del":
		need(1)
		if err := d.Delete([]byte(rest[0])); err != nil {
			fatal(err)
		}
	case "list":
		need(0)
		w := bufio.NewWriter(os.Stdout)
		c := d.Seq()
		for c.Next() {
			fmt.Fprintf(w, "%s\t%s\n", c.Key(), c.Value())
		}
		if err := c.Err(); err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	case "count":
		need(0)
		fmt.Println(d.Len())
	case "compact":
		need(1)
		if err := db.Compact(d, rest[0]); err != nil {
			fatal(err)
		}
		fmt.Printf("compacted %d keys into %s\n", d.Len(), rest[0])
	case "stats":
		need(0)
		warnUnsettled(d, path)
		s, err := d.Stats()
		if err != nil {
			fatal(err)
		}
		printStats(s)
	case "heatmap":
		need(0)
		warnUnsettled(d, path)
		h, err := db.Heatmap(d)
		if err != nil {
			fatal(err)
		}
		printHeatmap(h, *verbose)
	case "dump":
		need(0)
		warnUnsettled(d, path)
		if err := db.Dump(d, os.Stdout, *verbose); err != nil {
			fatal(err)
		}
	case "metrics":
		need(0)
		// The statistics scan generates the traffic the dump reports
		// (page reads through the pool, chain walks).
		if _, err := d.Stats(); err != nil {
			fatal(err)
		}
		if err := reg.WriteProm(os.Stdout); err != nil {
			fatal(err)
		}
	case "txn":
		// A sequence of `put K V` / `del K` groups applied atomically
		// through the db transaction interface: one Begin/Commit, durable
		// after a single log append + fsync, all-or-nothing. Begin itself
		// reports a table opened without a log.
		x, err := d.Begin()
		if err != nil {
			fatal(err)
		}
		nops := 0
		for i := 0; i < len(rest); {
			switch rest[i] {
			case "put":
				if i+2 >= len(rest) {
					fatal(errors.New("txn: put needs KEY VALUE"))
				}
				if err := x.Put([]byte(rest[i+1]), []byte(rest[i+2])); err != nil {
					x.Rollback()
					fatal(err)
				}
				i += 3
			case "del":
				if i+1 >= len(rest) {
					fatal(errors.New("txn: del needs KEY"))
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
	case "verify":
		need(0)
		if err := db.Verify(d); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	default:
		usage()
		os.Exit(2)
	}
}

// load bulk-imports KEY<TAB>VALUE lines from path ('-' = stdin),
// submitting them in PutBatch-sized chunks. Within a chunk a repeated
// key keeps the last value, matching what a Put loop would leave behind.
func load(d db.DB, path string) (int, error) {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	batch := make([]db.Pair, 0, core.DefaultBatchSize)
	n, lineno := 0, 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := d.PutBatch(batch); err != nil {
			return err
		}
		n += len(batch)
		batch = batch[:0]
		return nil
	}
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "\t")
		if !ok || key == "" {
			return n, fmt.Errorf("load: %s line %d: want KEY<TAB>VALUE", path, lineno)
		}
		batch = append(batch, db.Pair{Key: []byte(key), Data: []byte(val)})
		if len(batch) == core.DefaultBatchSize {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, flush()
}

// warnUnsettled tells stderr when the pages of path may predate its last
// commit: the view below is then the last sync or checkpoint.
func warnUnsettled(d db.DB, path string) {
	dirty, pending, err := db.Unsettled(d)
	if err != nil {
		fatal(err)
	}
	if dirty {
		fmt.Fprintf(os.Stderr, "dbcli: warning: %s was not cleanly closed; contents may predate the crash (run recover)\n", path)
	} else if pending > 0 {
		fmt.Fprintf(os.Stderr, "dbcli: warning: %s has %d committed transactions in its log not yet in the pages (run recover)\n", path, pending)
	}
}

// printStats renders the db.Stats view.
func printStats(s db.Stats) {
	h := s.Hash
	fmt.Printf("method:          %v\n", s.Method)
	fmt.Printf("keys:            %d\n", s.Keys)
	fmt.Printf("pages:           %d x %d bytes\n", s.Pages, s.PageSize)
	fmt.Printf("cache:           %.1f%% hit ratio (%d hits, %d misses)\n",
		100*s.CacheHitRatio, s.CacheHits, s.CacheMisses)
	fmt.Printf("buckets:         %d (%d empty)\n", h.Buckets, h.EmptyBuckets)
	fmt.Printf("overflow pages:  %d chain, %d big-pair, %d bitmap\n",
		h.OverflowPages, h.BigPairPages, h.BitmapPages)
	fmt.Printf("longest chain:   %d pages\n", h.MaxChain)
	fmt.Printf("chain lengths:  ")
	for i, n := range h.ChainDist {
		fmt.Printf(" %dp:%d", i+1, n)
	}
	fmt.Println()
	fmt.Printf("keys/page:       %.2f\n", float64(s.Keys)/float64(int(h.Buckets)+h.OverflowPages))
	fmt.Printf("page fill:       %.0f%%\n", 100*h.AvgFill)
	fmt.Printf("ops:             %d gets (%d misses), %d puts, %d deletes, %d syncs\n",
		h.Gets, h.GetMisses, h.Puts, h.Deletes, h.Syncs)
	fmt.Printf("splits:          %d controlled, %d uncontrolled\n",
		h.SplitsControlled, h.SplitsUncontrolled)
	if h.WalLSN != 0 || h.WalAppends != 0 {
		fmt.Printf("wal:             checkpoint lsn %d, %d commits, %d appends, %d fsyncs\n",
			h.WalLSN, h.TxnCommits, h.WalAppends, h.WalFsyncs)
	}
}

// printHeatmap renders a core.Heatmap, the payload /debug/heatmap
// serves: summary, chain-depth distribution, a ten-bin fill histogram,
// and with verbose one row per bucket.
func printHeatmap(h *core.Heatmap, verbose bool) {
	fmt.Println(h)
	var bins [10]int
	for _, row := range h.PerBucket {
		bins[min(int(row.Fill*10), 9)]++
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
			}
			fmt.Printf("%6d  %7d  %7d  %5d  %3.0f%%  %s\n",
				row.Bucket, row.Entries, row.BigRefs, row.ChainPages, 100*row.Fill, flt)
		}
	}
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

// hashmon polls a telemetry /stats endpoint and renders deltas. It is
// schema-agnostic: the JSON document is flattened to path -> number,
// and each tick prints the paths whose values changed, with their
// delta. Non-counter fields (gauges going down) render negative deltas
// just as usefully. If the same server answers /debug/oplog, each tick
// also renders the op-ledger attribution per command.
func hashmon(args []string) error {
	if len(args) < 1 || len(args) > 3 {
		usage()
		os.Exit(2)
	}
	url := args[0]
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/")
	if !strings.HasSuffix(url, "/stats") {
		url += "/stats"
	}
	interval := 2 * time.Second
	if len(args) >= 2 {
		d, err := time.ParseDuration(args[1])
		if err != nil || d <= 0 {
			return fmt.Errorf("hashmon: bad interval %q", args[1])
		}
		interval = d
	}
	count := 0 // 0: poll until interrupted
	if len(args) == 3 {
		c, err := strconv.Atoi(args[2])
		if err != nil || c < 1 {
			return fmt.Errorf("hashmon: bad count %q", args[2])
		}
		count = c
	}

	client := &http.Client{Timeout: interval + 10*time.Second}
	poll := func() (map[string]float64, error) {
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("hashmon: %s: HTTP %d", url, resp.StatusCode)
		}
		var doc any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return nil, fmt.Errorf("hashmon: %s: %v", url, err)
		}
		flat := map[string]float64{}
		flattenJSON("", doc, flat)
		return flat, nil
	}

	// The op ledger is optional on the server side: one probe decides,
	// a 404 (dbserver -oplog=false, or dbcli's own telemetry) just drops
	// the extra table.
	oplogURL := strings.TrimSuffix(url, "/stats") + "/debug/oplog"
	pollOplog := func() *oplog.Summary {
		resp, err := client.Get(oplogURL)
		if err != nil {
			return nil
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil
		}
		var sum oplog.Summary
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			return nil
		}
		return &sum
	}

	prev, err := poll()
	if err != nil {
		return err
	}
	withOplog := pollOplog() != nil
	fmt.Printf("hashmon %s: %d numeric series, polling every %v\n", url, len(prev), interval)
	if withOplog {
		fmt.Printf("op ledger live on %s\n", oplogURL)
	}
	start := time.Now()
	for i := 1; count == 0 || i < count; i++ {
		time.Sleep(interval)
		cur, err := poll()
		if err != nil {
			return err
		}
		var changed []string
		for path, v := range cur {
			if v != prev[path] {
				changed = append(changed, path)
			}
		}
		sort.Strings(changed)
		fmt.Printf("--- t=%s (%d changed)\n", time.Since(start).Round(time.Second), len(changed))
		for _, path := range changed {
			fmt.Printf("  %-50s %14.6g  %+g\n", path, cur[path], cur[path]-prev[path])
		}
		if withOplog {
			if sum := pollOplog(); sum != nil {
				printOplog(sum)
			}
		}
		prev = cur
	}
	return nil
}

// printOplog renders the attribution table: per command the end-to-end
// percentiles, then its phases heaviest-first with their own p50/p99 —
// the columns that turn "puts got slow" into "puts got slow in fsync".
func printOplog(sum *oplog.Summary) {
	if len(sum.Commands) == 0 {
		return
	}
	fmt.Printf("  %-22s %10s %10s %10s\n", "oplog", "count", "p50", "p99")
	for _, cs := range sum.Commands {
		fmt.Printf("  %-22s %10d %8.0fus %8.0fus\n", cs.Cmd, cs.Count, cs.P50us, cs.P99us)
		phases := append([]oplog.PhaseStat(nil), cs.Phases...)
		sort.Slice(phases, func(i, j int) bool { return phases[i].Total > phases[j].Total })
		for i, ps := range phases {
			if i == 4 {
				break
			}
			fmt.Printf("    %-20s %10d %8.0fus %8.0fus\n", ps.Phase, ps.Count, ps.P50us, ps.P99us)
		}
	}
}

// flattenJSON walks a decoded JSON document collecting numeric leaves
// as dotted-path -> value.
func flattenJSON(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, v := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenJSON(p, v, out)
		}
	case []any:
		for i, v := range x {
			flattenJSON(fmt.Sprintf("%s[%d]", prefix, i), v, out)
		}
	case float64:
		out[prefix] = x
	case bool:
		if x {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dbcli: %v\n", err)
	if errors.Is(err, pagefile.ErrLocked) {
		fmt.Fprintln(os.Stderr, "dbcli: another process holds the file; for a live view, watch its -telemetry ADDR with dbcli hashmon ADDR (/stats)")
	}
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dbcli [flags] file.db {put K V|putnew K V|get K|del K|has K|list|count|load FILE|compact NEW|stats|metrics|verify|heatmap|dump|recover|txn {put K V|del K}...}
       dbcli hashmon URL [INTERVAL [COUNT]]`)
	flag.PrintDefaults()
}
