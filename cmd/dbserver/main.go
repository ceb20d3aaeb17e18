// Command dbserver serves a sharded hash database over TCP: the
// package's network front end. Keys hash across N shards, each its own
// linear-hash table with a private buffer pool, so writes from many
// connections apply in parallel instead of serializing on one table
// lock; the shards share one write-ahead log per database (DIR/wal), so
// a TXN costs one append and one fsync however many shards its keys
// land on, and is atomic across them. The wire protocol is the small
// RESP-like text
// protocol of internal/server (GET/PUT/DEL/BATCH/TXN/STATS); try it by
// hand with nc:
//
//	dbserver -addr :7700 -dir /var/tmp/kv &
//	printf 'PUT greeting hello\r\nGET greeting\r\n' | nc localhost 7700
//
// Flags:
//
//	-addr HOST:PORT   listen address (default :7700; :0 picks a port)
//	-shards N         shard count (default 8; fixed at directory creation)
//	-dir PATH         database directory; empty serves memory-resident
//	                  shards (data lost on exit)
//	-wal              write-ahead log, one per database (DIR/wal),
//	                  enabling TXN (default true; -wal=false serves a
//	                  txn-less store unless the directory already has one)
//	-cache N          buffer pool bytes per shard
//	-bsize N          bucket size for new shards
//	-ffactor N        fill factor for new shards
//	-nelem N          expected total element count (divided across shards)
//	-telemetry ADDR   ops dashboard: /metrics aggregates every shard and
//	                  the server_* series on one page, /stats breaks the
//	                  aggregate down per shard, /debug/heatmap maps every
//	                  shard's buckets, /debug/events is the trace ring the
//	                  shards and the log emit into (the ring exists only
//	                  with this flag)
//	-oplog            per-request phase attribution (default true): every
//	                  command runs under an op ledger; phase-latency
//	                  histograms land on /metrics (oplog_*), the summary
//	                  on /debug/oplog and in STATS, and the slowest
//	                  request ledgers — each with the ring events of its
//	                  span — on /debug/oplog/exemplars
//
// At start the directory is recovered if it needs it (a SIGKILLed or
// power-cut server: every shard back to its last checkpoint through the
// strict gate, then the log's committed transactions replayed) and one
// line per shard says what was found. SIGINT/SIGTERM shut down
// gracefully: stop accepting, drain in-flight commands and pending
// coalesced writes, then checkpoint and close every shard and the log.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/server"
	"unixhash/internal/trace"
)

func main() {
	addr := flag.String("addr", ":7700", "listen address")
	shards := flag.Int("shards", 8, "shard count (fixed when the directory is created)")
	dir := flag.String("dir", "", "database directory; empty = memory-resident")
	wal := flag.Bool("wal", true, "one write-ahead log for the database, DIR/wal (enables TXN)")
	cache := flag.Int("cache", 0, "buffer pool bytes per shard")
	bsize := flag.Int("bsize", 0, "bucket size for new shards")
	ffactor := flag.Int("ffactor", 0, "fill factor for new shards")
	nelem := flag.Int("nelem", 0, "expected total element count")
	telemetry := flag.String("telemetry", "", "serve the ops dashboard on this address")
	oplogOn := flag.Bool("oplog", true, "per-request phase attribution (op ledger)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "dbserver: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	// One registry spans the stack: every shard's engine metrics
	// aggregate into it, and the server's connection counters join them.
	reg := metrics.New()
	// The trace ring exists only when something can read it: without
	// -telemetry the shards and the log hold a nil tracer.
	var tr *trace.Tracer
	if *telemetry != "" {
		tr = trace.New(0)
	}
	d, recovered, err := db.RecoverSharded(*dir, *shards, &db.Config{Hash: &core.Options{
		Bsize: *bsize, Ffactor: *ffactor, Nelem: *nelem, CacheSize: *cache,
		WAL: *wal, Metrics: reg, Trace: tr,
	}})
	if err != nil {
		fatal(err)
	}
	if *dir != "" {
		for i, rep := range recovered {
			fmt.Fprintf(os.Stderr, "dbserver: shard %d: %v\n", i, rep)
		}
	}

	// The op-ledger recorder spans the stack like the registry: the
	// server charges each command's phases, the recorder's histograms
	// land in the shared registry, and telemetry serves the summary.
	var rec *oplog.Recorder
	if *oplogOn {
		rec = oplog.NewRecorder(reg, d.NShards())
	}

	// Catch signals before announcing the address: a supervisor (or the
	// SIGKILL drill) that stops the server the moment it is "serving" must
	// get the graceful path, not the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	s, err := server.Serve(*addr, server.Options{DB: d, Metrics: reg, Oplog: rec})
	if err != nil {
		d.Close()
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dbserver: serving %d shards on %s\n", d.NShards(), s.Addr())

	if *telemetry != "" {
		ts, err := db.ServeTelemetry(d, *telemetry, rec)
		if err != nil {
			s.Close()
			d.Close()
			fatal(err)
		}
		defer ts.Close()
		fmt.Fprintf(os.Stderr, "dbserver: telemetry http://%s\n", ts.Addr())
	}

	<-sig
	fmt.Fprintln(os.Stderr, "dbserver: shutting down")
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dbserver: close: %v\n", err)
	}
	if err := d.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dbserver: %v\n", err)
	os.Exit(1)
}
