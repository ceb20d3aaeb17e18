package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"unixhash/internal/db"
)

// traceDivisor scales a traced run down from the end-to-end op budget:
// a -trace run replays the stream twice (untraced, for the overhead
// ratio, then traced) and holds every span in memory.
const traceDivisor = 2

// counters is what the benchmark reads from db.Stats, summed over the
// shards. Fields db.Stats does not carry stay zero.
type counters struct {
	hits, misses             int64
	splits                   int64
	filterSkips, filterHits  int64
	ovflPages, maxChain      int
	fillWeighted, fillBucket float64
}

func readCounters(d db.DB) (counters, error) {
	st, err := d.Stats()
	if err != nil {
		return counters{}, err
	}
	var c counters
	for _, sh := range st.Shards {
		c.hits += sh.CacheHits
		c.misses += sh.CacheMisses
		if h := sh.Hash; h != nil {
			c.splits += h.SplitsControlled + h.SplitsUncontrolled
			c.filterSkips += h.FilterSkips
			c.filterHits += h.FilterHits
			c.ovflPages += h.OverflowPages
			c.maxChain = max(c.maxChain, h.MaxChain)
			c.fillWeighted += h.AvgFill * float64(h.Buckets)
			c.fillBucket += float64(h.Buckets)
		}
	}
	return c, nil
}

// ratio is a/b, 0 when b is 0: a per-layer ratio over nothing is
// reported as zero work, not as an error.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loadedStack opens an in-process stack on dir and preloads it.
func (e *env) loadedStack(sp *spec, dir string, tr *tracer) (*stack, error) {
	st, err := openStack(dir, sp.cache, e.keys, tr)
	if err != nil {
		return nil, err
	}
	if err := preload(st.srv.Addr(), e.seed, e.keys); err != nil {
		st.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return st, nil
}

// runTraced replays sp's op stream against the in-process stacks and
// derives the per-layer metrics: span self times and counts from the
// traced replay, db.Stats deltas around it, and the probe pass.
func (e *env) runTraced(sp *spec) (*result, error) {
	ops := sp.opsPerSecond * e.seconds / traceDivisor
	res := &result{workload: sp.name, traced: true, ops: ops}

	// Untraced reference: what dbserver runs, in this process.
	dir0 := e.freshDir()
	defer os.RemoveAll(dir0)
	ref, err := e.loadedStack(sp, dir0, nil)
	if err != nil {
		return nil, err
	}
	refRun, err := drive(ref.srv.Addr(), sp, e.seed, e.keys, ops, 0, nil, nil)
	if cerr := ref.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Traced replay of the same stream.
	tr := &tracer{}
	dir := e.freshDir()
	defer os.RemoveAll(dir)
	st, err := e.loadedStack(sp, dir, tr)
	if err != nil {
		return nil, err
	}
	c0, err := readCounters(st.dbh)
	if err != nil {
		st.close()
		return nil, err
	}
	tr.on.Store(true)
	run, err := drive(st.srv.Addr(), sp, e.seed, e.keys, ops, 0, nil, tr)
	tr.on.Store(false)
	if err != nil {
		st.close()
		return nil, err
	}
	// db.Stats walks every bucket through the pool, so a reading counts
	// its own walk. c0 ends with one; taking two here lets the second
	// walk's cost (c2-c1) stand in for the first's.
	c1, err1 := readCounters(st.dbh)
	c2, err2 := readCounters(st.dbh)
	if err1 != nil || err2 != nil {
		st.close()
		return nil, fmt.Errorf("stats: %v %v", err1, err2)
	}
	hits := float64(c1.hits - c0.hits - (c2.hits - c1.hits))
	misses := float64(c1.misses - c0.misses - (c2.misses - c1.misses))

	tr.on.Store(true)
	closeStart := now()
	cerr := st.close()
	drain := now() - closeStart
	tr.phase.add(span{name: spPhase, conn: -1, op: -1, parent: -1, start: closeStart, end: closeStart + drain})
	tr.on.Store(false)
	if cerr != nil {
		return nil, cerr
	}
	_, apparent, err := diskUsage(dir)
	if err != nil {
		return nil, err
	}
	reopenStart := now()
	re, err := openStack(dir, sp.cache, e.keys, nil)
	reopen := now() - reopenStart
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if err := re.close(); err != nil {
		return nil, err
	}

	spans := tr.finish()
	if err := writeSpans(filepath.Join(e.workdir, "spans-"+sp.name+".csv"), spans); err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	// Sums by span name: inside requests (the parent is a db span) and
	// everywhere (close phase included).
	type sum struct{ n, ns, bytes float64 }
	var inReq, total [nSpanNames]sum
	var selfClient, selfDB, selfTree, durClient float64
	leaves := 0
	for i, s := range spans {
		if s.name.isStore() || s.name.isDev() {
			leaves++
		}
		d := float64(s.end - s.start)
		t := &total[s.name]
		t.n, t.ns, t.bytes = t.n+1, t.ns+d, t.bytes+float64(s.bytes)
		switch {
		case s.name == spClient:
			selfClient += float64(self[i])
			selfTree += float64(self[i])
			durClient += d
		case s.name.isDB():
			selfDB += float64(self[i])
			if s.parent >= 0 {
				selfTree += float64(self[i])
			}
		case s.parent >= 0 && spans[s.parent].name.isDB():
			q := &inReq[s.name]
			q.n, q.ns, q.bytes = q.n+1, q.ns+d, q.bytes+float64(s.bytes)
			if spans[s.parent].parent >= 0 {
				selfTree += float64(self[i])
			}
		}
	}

	res.attempted, res.failed, res.errs = run.attempted+refRun.attempted, run.failed+refRun.failed, append(run.errs, refRun.errs...)
	nops := float64(max(run.attempted-run.failed, 1))
	txns := float64(run.kinds[opTxn])
	td := st.traced
	us := func(ns float64) float64 { return ns / 1e3 }

	res.add("server.self_us_per_op", "us", us(selfClient)/nops)
	res.add("server.pairs_per_batch", "ratio", ratio(float64(td.putReqs.Load()), float64(td.putBatches.Load())))
	res.add("db.calls_per_op", "ratio", float64(td.calls.Load())/nops)
	res.add("core.self_us_per_op", "us", us(selfDB)/nops)
	res.add("core.splits_per_kop", "1/kop", 1e3*float64(c1.splits-c0.splits)/nops)
	res.add("core.ovfl_pages", "count", float64(c1.ovflPages))
	res.add("core.max_chain", "count", float64(c1.maxChain))
	res.add("core.avg_fill", "ratio", ratio(c1.fillWeighted, c1.fillBucket))
	res.add("core.filter_skip_ratio", "ratio", ratio(float64(c1.filterSkips-c0.filterSkips), float64(c1.filterSkips-c0.filterSkips+c1.filterHits-c0.filterHits)))
	res.add("buffer.hit_ratio", "ratio", ratio(hits, hits+misses))
	res.add("buffer.faults_per_op", "ratio", misses/nops)
	res.add("wal.device_write_us_per_txn", "us", ratio(us(inReq[spDevWrite].ns), txns))
	res.add("wal.fsync_us_per_txn", "us", ratio(us(inReq[spDevSync].ns), txns))
	res.add("wal.fsyncs_per_txn", "ratio", ratio(inReq[spDevSync].n, txns))
	res.add("wal.bytes_per_user_byte", "ratio", ratio(inReq[spDevWrite].bytes, float64(run.txnBytes)))
	pageReads := (inReq[spStoreRead].bytes + inReq[spStoreReadV].bytes) / bsize
	pageWrites := (inReq[spStoreWrite].bytes + inReq[spStoreWriteV].bytes) / bsize
	res.add("pagefile.reads_per_op", "ratio", pageReads/nops)
	res.add("pagefile.writes_per_op", "ratio", pageWrites/nops)
	res.add("pagefile.read_us_per_op", "us", us(inReq[spStoreRead].ns+inReq[spStoreReadV].ns)/nops)
	res.add("pagefile.write_us_per_op", "us", us(inReq[spStoreWrite].ns+inReq[spStoreWriteV].ns)/nops)
	res.add("pagefile.syncs", "count", total[spStoreSync].n)
	res.add("pagefile.sync_us_total", "us", us(total[spStoreSync].ns))
	res.add("pagefile.bytes_written_per_user_byte", "ratio", ratio(total[spStoreWrite].bytes+total[spStoreWriteV].bytes, float64(run.userBytes)))
	res.add("pagefile.apparent_bytes", "B", float64(apparent))
	res.add("process.drain_s", "s", time.Duration(drain).Seconds())
	res.add("process.reopen_s", "s", time.Duration(reopen).Seconds())
	// The client's view of the traced replay: where p99, which did not
	// repeat within a bound end to end, is still reported.
	res.add("loadgen.op_p50_us", "us", run.all.p50us)
	res.add("loadgen.op_p99_us", "us", run.p99us)
	res.add("loadgen.late_p99_us", "us", run.late.p99us)
	achieved := 1.0
	if sp.open {
		achieved = nops / run.elapsed.Seconds() / float64(sp.opsPerSecond)
	}
	res.add("loadgen.achieved_over_offered", "ratio", achieved)
	res.add("trace.overhead_ratio", "ratio", ratio(run.opsPerSec, refRun.opsPerSec))
	res.add("trace.self_sum_over_request", "ratio", ratio(selfTree, durClient))
	res.add("trace.ambiguous_parent_ratio", "ratio", ratio(float64(tr.ambiguous), float64(leaves)))
	if err := runProbes(res, e.freshDir()); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	return res, nil
}
