// Command dbcli is the access-method-independent database tool: the same
// operations run over hash, btree or recno files, demonstrating the
// paper's generic key/data interface ("appear identical to the
// application layer").
//
//	dbcli -method hash  file.db put KEY VALUE
//	dbcli -method btree file.db get KEY
//	dbcli -method btree file.db range FROM      # ordered scan from FROM
//	dbcli -method recno file.db put 3 VALUE     # recno keys are numbers
//	dbcli -method recno file.db append VALUE
//	dbcli [...] load FILE                       # bulk import KEY<TAB>VALUE lines
//	dbcli [...] del KEY | list | count | stats | metrics | check | verify
//	dbcli -wal file.db txn put K V del K ...    # atomic multi-op commit (hash)
//	dbcli hashmon URL [INTERVAL [COUNT]]        # watch a live telemetry endpoint
//
// hashmon polls a running telemetry server's /stats endpoint (dbserver
// -telemetry, hashcli -telemetry, or any db.ServeTelemetry /
// telemetry.Serve caller) every INTERVAL (default 2s) and renders the
// numeric fields that changed since the previous poll as deltas — a
// portable poor-man's top for a table under load. When the server also exposes
// /debug/oplog (dbserver -oplog), each tick appends the per-command
// phase attribution: end-to-end p50/p99 per command plus its heaviest
// phases, so a latency regression names its phase in the same breath.
// COUNT limits the number of polls (default: until interrupted). URL
// may be a bare host:port; the /stats path is implied.
//
// load reads KEY<TAB>VALUE lines from FILE ('-' for stdin) and imports
// them through the batched write pipeline: records are staged in
// PutBatch-sized chunks so the hash method pays one lock acquisition,
// one dirty epoch and one deferred-split pass per chunk instead of per
// record (btree and recno fall back to a Put loop under the same
// interface). The count of imported records is printed on completion.
//
// check verifies structural invariants (btree only). verify checks a
// file without modifying it: for hash it also diagnoses files left
// dirty by a crash (is the last-synced state intact?), exiting nonzero
// on any problem. stats prints the uniform db.Stats view (keys, pages,
// cache hit ratio, method-specific detail) for any method. metrics
// opens a hash file with a metric registry, runs the statistics scan,
// and prints the registry in the Prometheus text format.
//
// txn (hash only) applies a sequence of put K V / del K groups as one
// atomic transaction through the write-ahead log: durable after a
// single log append + fsync, all-or-nothing on error. Create the table
// with -wal; one that already has log checkpoints re-attaches its log
// automatically.
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
)

func main() {
	method := flag.String("method", "hash", "access method: hash, btree, recno")
	useWAL := flag.Bool("wal", false, "hash only: attach a write-ahead log (FILE.wal), enabling txn")
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

	var m db.Method
	switch *method {
	case "hash":
		m = db.Hash
	case "btree":
		m = db.Btree
	case "recno":
		m = db.Recno
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	var cfg *db.Config
	var reg *metrics.Registry
	switch {
	case (cmd == "verify" || cmd == "stats") && m == db.Hash:
		// Inspection verbs must be able to open a file a crashed writer
		// left dirty, and must not modify it.
		cfg = &db.Config{Hash: &core.Options{ReadOnly: true, AllowDirty: true}}
	case cmd == "metrics":
		if m != db.Hash {
			fatal(errors.New("metrics requires -method hash"))
		}
		reg = metrics.New()
		cfg = &db.Config{Hash: &core.Options{ReadOnly: true, AllowDirty: true, Metrics: reg}}
	case *useWAL:
		// A table that already has log checkpoints re-attaches its log
		// automatically; the flag is what creates a transactional table.
		if m != db.Hash {
			fatal(errors.New("-wal requires -method hash"))
		}
		cfg = &db.Config{Hash: &core.Options{WAL: true}}
	}
	d, err := db.Open(path, m, cfg)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			fatal(err)
		}
	}()

	mkKey := func(s string) []byte {
		if m != db.Recno {
			return []byte(s)
		}
		i, err := strconv.Atoi(s)
		if err != nil {
			fatal(fmt.Errorf("recno key %q is not a number", s))
		}
		return db.RecnoKey(i)
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
		if err := d.Put(mkKey(rest[0]), []byte(rest[1])); err != nil {
			fatal(err)
		}
	case "append":
		need(1)
		if m != db.Recno {
			fatal(errors.New("append is a recno operation"))
		}
		if err := d.Put(db.RecnoKey(d.Len()), []byte(rest[0])); err != nil {
			fatal(err)
		}
		fmt.Println(d.Len() - 1)
	case "load":
		need(1)
		n, err := load(d, mkKey, rest[0])
		if err != nil {
			fatal(err)
		}
		fmt.Println(n)
	case "get":
		need(1)
		v, err := d.Get(mkKey(rest[0]))
		if errors.Is(err, db.ErrNotFound) {
			fmt.Fprintf(os.Stderr, "dbcli: %s: not found\n", rest[0])
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", v)
	case "del":
		need(1)
		if err := d.Delete(mkKey(rest[0])); err != nil {
			fatal(err)
		}
	case "list":
		need(0)
		w := bufio.NewWriter(os.Stdout)
		c := d.Seq()
		for c.Next() {
			printPair(w, m, c.Key(), c.Value())
		}
		if err := c.Err(); err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	case "range":
		need(1)
		c, err := db.Seek(d, []byte(rest[0]))
		if errors.Is(err, db.ErrUnsupported) {
			fatal(errors.New("range requires -method btree"))
		}
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(os.Stdout)
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
	case "stats":
		need(0)
		s, err := d.Stats()
		if err != nil {
			fatal(err)
		}
		printStats(s)
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
		// through the redesigned db transaction interface: one
		// Begin/Commit, durable after a single log append + fsync,
		// all-or-nothing. Only the hash method (opened with -wal)
		// supports it; Begin itself reports why when it cannot.
		x, err := d.Begin()
		if errors.Is(err, db.ErrNoTxn) {
			fatal(errors.New("txn requires -method hash (with -wal)"))
		}
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
	case "check":
		need(0)
		if err := db.Check(d); err != nil {
			if errors.Is(err, db.ErrUnsupported) {
				fatal(errors.New("check requires -method btree"))
			}
			fatal(err)
		}
		fmt.Println("ok")
	case "verify":
		need(0)
		if err := db.Verify(d); err != nil {
			if errors.Is(err, db.ErrUnsupported) {
				fatal(errors.New("verify is not supported for recno"))
			}
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
func load(d db.DB, mkKey func(string) []byte, path string) (int, error) {
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
		batch = append(batch, db.Pair{Key: mkKey(key), Data: []byte(val)})
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

// printStats renders the uniform Stats view plus the method detail.
func printStats(s db.Stats) {
	fmt.Printf("method:          %v\n", s.Method)
	fmt.Printf("keys:            %d\n", s.Keys)
	if s.PageSize > 0 {
		fmt.Printf("pages:           %d x %d bytes\n", s.Pages, s.PageSize)
		fmt.Printf("cache:           %.1f%% hit ratio (%d hits, %d misses)\n",
			100*s.CacheHitRatio, s.CacheHits, s.CacheMisses)
	}
	switch {
	case s.Hash != nil:
		h := s.Hash
		fmt.Printf("buckets:         %d (%d empty)\n", h.Buckets, h.EmptyBuckets)
		fmt.Printf("overflow pages:  %d chain, %d big-pair, %d bitmap\n",
			h.OverflowPages, h.BigPairPages, h.BitmapPages)
		fmt.Printf("longest chain:   %d pages\n", h.MaxChain)
		fmt.Printf("page fill:       %.0f%%\n", 100*h.AvgFill)
		fmt.Printf("ops:             %d gets (%d misses), %d puts, %d deletes, %d syncs\n",
			h.Gets, h.GetMisses, h.Puts, h.Deletes, h.Syncs)
		fmt.Printf("splits:          %d controlled, %d uncontrolled\n",
			h.SplitsControlled, h.SplitsUncontrolled)
		if h.WalLSN != 0 || h.WalAppends != 0 {
			fmt.Printf("wal:             checkpoint lsn %d, %d commits, %d appends, %d fsyncs\n",
				h.WalLSN, h.TxnCommits, h.WalAppends, h.WalFsyncs)
		}
	case s.Btree != nil:
		b := s.Btree
		fmt.Printf("depth:           %d\n", b.Depth)
		fmt.Printf("free pages:      %d\n", b.FreePages)
		fmt.Printf("ops:             %d gets (%d misses), %d puts, %d deletes, %d syncs\n",
			b.Gets, b.GetMisses, b.Puts, b.Deletes, b.Syncs)
	case s.Recno != nil:
		r := s.Recno
		fmt.Printf("record bytes:    %d\n", r.Bytes)
		if r.Reclen > 0 {
			fmt.Printf("record length:   %d (fixed)\n", r.Reclen)
		} else {
			fmt.Printf("delimiter:       %q (variable-length)\n", r.Bval)
		}
		fmt.Printf("ops:             %d gets (%d misses), %d puts, %d deletes, %d syncs\n",
			r.Gets, r.GetMisses, r.Puts, r.Deletes, r.Syncs)
	}
}

func printPair(w *bufio.Writer, m db.Method, k, v []byte) {
	if m == db.Recno {
		if i, err := db.ParseRecnoKey(k); err == nil {
			fmt.Fprintf(w, "%d\t%s\n", i, v)
			return
		}
	}
	fmt.Fprintf(w, "%s\t%s\n", k, v)
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
	// a 404 (telemetry without -oplog) just drops the extra table.
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
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dbcli [-method hash|btree|recno] [-wal] file.db {put K V|append V|load FILE|get K|del K|list|range FROM|count|stats|metrics|check|verify|txn {put K V|del K}...}
       dbcli hashmon URL [INTERVAL [COUNT]]`)
	flag.PrintDefaults()
}
