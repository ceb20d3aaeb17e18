package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// streamHash is the hash of the first n requests connection conn sends
// for (sp, seed), as bytes on the wire.
func streamHash(sp *spec, seed uint64, conn, n int) string {
	g := newGen(sp, seed, conn, preloadKeys)
	enc := encoder{seed: seed}
	h := sha256.New()
	var o op
	var buf []byte
	for i := 0; i < n; i++ {
		g.next(&o)
		buf = enc.appendOp(buf[:0], &o)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameStream(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b := streamHash(sp, 7, 0, 5000), streamHash(sp, 7, 0, 5000)
		if a != b {
			t.Errorf("%s: same seed gave different streams", sp.name)
		}
		if c := streamHash(sp, 8, 0, 5000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
		}
		if c := streamHash(sp, 7, 1, 5000); c == a {
			t.Errorf("%s: connections 0 and 1 gave the same stream", sp.name)
		}
	}
	// The stream is part of the benchmark's definition: a change to the
	// generator that alters it makes old and new results incomparable,
	// and must show up here.
	sp, _ := specByName("mixed_churn_open")
	const want = "13ad0ec61532ea5e245d95bcd4fb14861a4c4d9c4a8d6a2cc99ed726729e8b23"
	if got := streamHash(&sp, 1, 0, 5000); got != want {
		t.Errorf("mixed_churn_open seed 1 stream hash = %s, want %s", got, want)
	}
}

func TestMixedChurnReinsertsDeletedKeys(t *testing.T) {
	sp, _ := specByName("mixed_churn_open")
	g := newGen(&sp, 3, 0, preloadKeys)
	deletedAt := map[uint32]int{}
	var o op
	reinserts := 0
	for i := 0; i < 50_000; i++ {
		g.next(&o)
		switch o.kind {
		case opDel:
			deletedAt[o.subs[0].id] = i
		case opReinsert:
			if _, ok := deletedAt[o.subs[0].id]; !ok {
				t.Fatalf("op %d re-inserts key %d, which was not deleted", i, o.subs[0].id)
			}
			if o.subs[0].ver < 2 {
				t.Fatalf("re-insert of key %d reuses version %d", o.subs[0].id, o.subs[0].ver)
			}
			delete(deletedAt, o.subs[0].id)
			reinserts++
		case opGet:
			if _, gone := deletedAt[o.subs[0].id]; gone {
				t.Fatalf("op %d GETs key %d while it is deleted", i, o.subs[0].id)
			}
		}
	}
	if reinserts < 3000 {
		t.Errorf("only %d re-inserts in 50000 ops", reinserts)
	}
	if want := preloadKeys/nConns - len(deletedAt); g.live != want {
		t.Errorf("model counts %d live keys, want %d", g.live, want)
	}
}

func TestQuantilesAndTailRule(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if q := quantile(xs, 0.5); q != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", q)
	}
	if q := quantile(xs, 0.99); q != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("p50 of nothing = %d, want 0", q)
	}
	// Ten samples must lie beyond the percentile: for p99 that takes 1000.
	for n, want := range map[int]bool{0: false, 100: false, 999: false, 1000: true, 5000: true} {
		if got := tailSupported(n, 0.99); got != want {
			t.Errorf("tailSupported(%d, 0.99) = %v, want %v", n, got, want)
		}
	}
	if l := summarize(make([]int64, 999)); l.hasP99 {
		t.Error("summarize of 999 samples claims a p99")
	}
	if l := summarize(make([]int64, 1000)); !l.hasP99 {
		t.Error("summarize of 1000 samples has no p99")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := spreadOf([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", s.q1, s.median, s.q3)
	}
	if math.Abs(s.iqrOverMedian-1.0) > 1e-12 || math.Abs(s.rangeOverMedian-9/5.5) > 1e-12 {
		t.Errorf("spreads = %v %v", s.iqrOverMedian, s.rangeOverMedian)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	s = spreadOf([]float64{3, 1, 2})
	if s.q1 != 1 || s.median != 2 || s.q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", s.q1, s.median, s.q3)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{name: spClient, start: 0, end: 100, parent: -1},   // 0
		{name: spDBGet, start: 10, end: 30, parent: 0},     // 1
		{name: spDBGet, start: 20, end: 50, parent: 0},     // 2: overlaps 1 on [20,30]
		{name: spStoreRead, start: 25, end: 35, parent: 2}, // 3
		{name: spStoreRead, start: 45, end: 60, parent: 2}, // 4: runs past its parent
		{name: spDBGet, start: 90, end: 120, parent: 0},    // 5: runs past the root
	}
	got := selfTimes(spans)
	// root: 100 - |[10,50] ∪ [90,100]| = 50; span 2: 30 - (10 + 5) = 15.
	want := []int64{50, 20, 15, 10, 15, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestFinishParentsSpans(t *testing.T) {
	tr := &tracer{}
	tr.clientSpan(0, 0, 2, 0, 100)
	tr.clientSpan(0, 2, 1, 100, 200)
	tr.db[0].add(span{name: spDBGet, conn: 0, op: 1, nops: 1, call: 0, shards: 1, start: 10, end: 40})
	tr.db[0].add(span{name: spDBGet, conn: 0, op: 2, nops: 1, call: 1, shards: 1, start: 110, end: 140})
	// Matched by call; unmatched, found by containment; and contained by nothing.
	tr.store[0].add(span{name: spStoreRead, conn: 0, call: 1, op: -1, start: 20, end: 30})
	tr.store[0].add(span{name: spStoreRead, conn: -1, call: -1, op: -1, start: 120, end: 130})
	tr.store[0].add(span{name: spStoreRead, conn: -1, call: -1, op: -1, start: 300, end: 310})
	spans := tr.finish()
	byStart := map[int64]span{}
	for _, s := range spans {
		byStart[s.start] = s
	}
	if p := byStart[10].parent; spans[p].start != 0 {
		t.Errorf("db span of op 1 parented to the window starting at %d", spans[p].start)
	}
	if p := byStart[110].parent; spans[p].start != 100 {
		t.Errorf("db span of op 2 parented to the window starting at %d", spans[p].start)
	}
	if p := byStart[20].parent; spans[p].start != 110 {
		t.Errorf("leaf matched to call 1 parented to the span starting at %d", spans[p].start)
	}
	if p := byStart[120].parent; spans[p].start != 110 {
		t.Errorf("unmatched leaf inside a db span parented to the span starting at %d", spans[p].start)
	}
	if p := byStart[300].parent; p != -1 {
		t.Errorf("leaf inside nothing has parent %d", p)
	}
}

// stallingServer answers every GET with a nil bulk and stalls once, for
// stall, before answering request number stallAt on each connection.
func stallingServer(t *testing.T, stallAt int, stall time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				for n := 0; ; n++ {
					// "*2 $3 GET $13 key": five lines per request.
					for i := 0; i < 5; i++ {
						if _, err := br.ReadSlice('\n'); err != nil {
							return
						}
					}
					if n == stallAt {
						time.Sleep(stall)
					}
					if _, err := nc.Write([]byte("$-1\r\n")); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	absentOnly := mix(share{100, opGetAbsent})
	// Drive one connection by hand to see every sample.
	slow := func(open bool) int {
		sp := &spec{name: "t", depth: 1, open: open, opsPerSecond: 2000, mix: absentOnly}
		c, err := dial(stallingServer(t, 50, stall))
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		res := &connResult{}
		runConn(res, c, newGen(sp, 1, 0, 1000), 200, now(), 0, 0, nil)
		if res.failed != 0 {
			t.Fatalf("%d ops failed: %s", res.failed, res.firstErr)
		}
		n := 0
		for _, s := range res.samples {
			if s.ns > int64(stall/4) {
				n++
			}
		}
		return n
	}
	// 1000 requests/s per connection and a 60 ms stall: the stalled
	// request and the ~45 due during the first three quarters of the
	// stall all wait more than 15 ms when timed from their due time. A
	// closed loop sees one slow request.
	if n := slow(true); n < 30 {
		t.Errorf("open loop: %d requests slower than a quarter of the stall, want at least 30", n)
	}
	if n := slow(false); n != 1 {
		t.Errorf("closed loop: %d slow requests, want 1", n)
	}
}

func TestTraceArgForms(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--workload a --seed 3 --seconds 2 --trace 0", "--workload a --seed 3 --seconds 2 --trace=0"},
		{"--trace 1 --seed 3", "--trace=1 --seed 3"},
		{"-trace -seed 3", "-trace -seed 3"},
		{"-trace", "-trace"},
	} {
		if got := strings.Join(fixTraceArg(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("fixTraceArg(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// smoke runs sp at a small size against an in-process server on real
// files and checks it against the model, across a restart.
func smoke(t *testing.T, sp *spec, tr *tracer) (*runResult, *stack) {
	t.Helper()
	const keys, ops = 2000, 2000
	dir := t.TempDir()
	st, err := openStack(dir, sp.cache, keys, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := preload(st.srv.Addr(), 1, keys); err != nil {
		st.close()
		t.Fatal(err)
	}
	if tr != nil {
		tr.on.Store(true)
	}
	run, err := drive(st.srv.Addr(), sp, 1, keys, ops, 0, nil, tr)
	if tr != nil {
		tr.on.Store(false)
	}
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if run.failed != 0 || run.attempted != ops {
		t.Fatalf("%s: %d of %d ops failed: %v", sp.name, run.failed, run.attempted, run.errs)
	}
	re, err := openStack(dir, sp.cache, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	checked, wrong, why, err := verifyAfterRestart(re.srv.Addr(), run.gens, 1)
	if err != nil || wrong != 0 {
		t.Fatalf("%s: after restart %d of %d checks wrong (%s): %v", sp.name, wrong, checked, why, err)
	}
	if checked < keys/40 {
		t.Fatalf("%s: only %d keys sampled after restart", sp.name, checked)
	}
	return run, st
}

func TestSmokeAllWorkloads(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			run, _ := smoke(t, sp, nil)
			if sp.open && run.late.n != run.attempted {
				t.Errorf("open loop recorded %d lateness samples for %d ops", run.late.n, run.attempted)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"write_coalesced", "txn_durable", "read_faulting"} {
		sp, _ := specByName(name)
		t.Run(name, func(t *testing.T) {
			tr := &tracer{}
			run, st := smoke(t, &sp, tr)
			spans := tr.finish()
			var ops, leaves, orphans int
			for _, s := range spans {
				switch {
				case s.name.isDB():
					if s.parent < 0 {
						t.Fatalf("db span %+v has no client window", s)
					}
					ops += int(s.nops)
				case s.name.isStore() || s.name.isDev():
					leaves++
					if s.parent < 0 {
						orphans++
					}
				}
			}
			if ops != run.attempted {
				t.Errorf("db spans cover %d ops, the generator sent %d", ops, run.attempted)
			}
			if leaves == 0 || orphans > leaves/20 {
				t.Errorf("%d of %d store/device spans found no parent", orphans, leaves)
			}
			for i, s := range selfTimes(spans) {
				if s < 0 {
					t.Fatalf("span %d has negative self time %d", i, s)
				}
			}
			if name == "write_coalesced" && st.traced.putReqs.Load() < 8*st.traced.putBatches.Load() {
				t.Errorf("%d PUTs reached db in %d batches: the server did not coalesce", st.traced.putReqs.Load(), st.traced.putBatches.Load())
			}
		})
	}
}

func TestContractLineShape(t *testing.T) {
	r := &result{workload: "w", attempted: 10}
	for _, n := range contractE2E {
		r.add(n, "u", 1.5)
	}
	r.add("error_rate", "ratio", 0)
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(contractLine(r)), &got); err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range got.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	want := append([]string(nil), contractE2E...)
	sort.Strings(want)
	if !got.Correct || got.Attempted != 10 || !reflect.DeepEqual(names, want) {
		t.Errorf("contract line = %+v", got)
	}
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json to what the
// program prints: same workloads, same end-to-end metrics, and the
// per-layer metrics of a (small) traced run.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string }       `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var wl, e2e []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	var want []string
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	if !reflect.DeepEqual(wl, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", wl, want)
	}
	if !reflect.DeepEqual(e2e, contractE2E) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, contractE2E)
	}

	sp, _ := specByName("txn_durable")
	sp.opsPerSecond = 500
	e := &env{workdir: t.TempDir(), seed: 1, seconds: 2, keys: 2000}
	res, err := e.runTraced(&sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("traced run: %d ops failed: %v", res.failed, res.errs)
	}
	listed := map[string]string{}
	for _, m := range bf.PerLayer {
		listed[m.Name] = m.Unit
	}
	for _, m := range res.metrics {
		if unit, ok := listed[m.name]; !ok {
			t.Errorf("traced run prints %s, BENCHMARK.json does not list it", m.name)
		} else if unit != m.unit {
			t.Errorf("%s: unit %q in the run, %q in BENCHMARK.json", m.name, m.unit, unit)
		}
		delete(listed, m.name)
	}
	for name := range listed {
		t.Errorf("BENCHMARK.json lists %s, the traced run does not print it", name)
	}
	if m, _ := res.get("wal.fsyncs_per_txn"); m.value <= 0 {
		t.Errorf("txn_durable traced: wal.fsyncs_per_txn = %v, want > 0", m.value)
	}
}
