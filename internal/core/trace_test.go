package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"unixhash/internal/telemetry"
	"unixhash/internal/trace"
)

// TestTraceDisabledZeroAlloc is the zero-overhead guard for the tracing
// hooks: with no tracer attached (the default), the instrumented
// wrappers must add nothing to the hot paths — a steady-state GetBuf
// and a small-pair replace Put stay at 0 allocations per op, exactly as
// TestGetBufZeroAlloc and TestPutAllocs demand of the uninstrumented
// code.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 1024, Ffactor: 16})
	defer tbl.Close()
	if tbl.Tracer().Ring() != nil {
		t.Fatal("ring attached without Options.Trace")
	}
	const n = 200
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		if err := tbl.Put(keys[i], []byte("value")); err != nil {
			t.Fatal(err)
		}
	}

	buf := make([]byte, 0, 64)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		var err error
		buf, err = tbl.GetBuf(keys[i%n], buf)
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer: GetBuf allocated %.1f times per op, want 0", allocs)
	}

	val := []byte("value2")
	i = 0
	allocs = testing.AllocsPerRun(500, func() {
		if err := tbl.Put(keys[i%n], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer: small replace Put allocated %.1f times per op, want 0", allocs)
	}
}

// TestTraceEvents drives a table with a tracer attached through growth,
// deletion and sync and checks that the structural events land in the
// ring: splits begin and end in pairs, overflow pages are allocated,
// and the two-phase sync emits begin/phase/end.
func TestTraceEvents(t *testing.T) {
	tr := trace.New(4096)
	tbl := mustOpen(t, "", &Options{Bsize: 512, Ffactor: 4, Trace: tr})
	defer tbl.Close()

	for i := 0; i < 300; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A pair larger than a page goes onto a big-pair overflow chain,
	// exercising the allocator events; deleting it frees the chain.
	big := make([]byte, 2000)
	if err := tbl.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete([]byte("big")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}

	count := map[trace.Type]int{}
	for _, ev := range tr.Events(0) {
		count[ev.Type]++
	}
	if count[trace.EvSplitBegin] == 0 || count[trace.EvSplitBegin] != count[trace.EvSplitEnd] {
		t.Fatalf("split events unbalanced: %d begin, %d end", count[trace.EvSplitBegin], count[trace.EvSplitEnd])
	}
	if count[trace.EvOvflAlloc] == 0 {
		t.Fatal("no overflow allocations traced for the big-pair chain")
	}
	if count[trace.EvBigPairWrite] == 0 {
		t.Fatal("no big-pair write traced")
	}
	if count[trace.EvOvflFree] == 0 {
		t.Fatal("no overflow frees traced after deleting the big pair")
	}
	if count[trace.EvSyncBegin] == 0 || count[trace.EvSyncEnd] == 0 || count[trace.EvSyncPhase] == 0 {
		t.Fatalf("sync events missing: %d begin, %d phase, %d end",
			count[trace.EvSyncBegin], count[trace.EvSyncPhase], count[trace.EvSyncEnd])
	}

	// A split-end must carry the buckets it redistributed.
	ends := tr.Events(1, trace.EvSplitEnd)
	if len(ends) != 1 {
		t.Fatalf("filtered Events returned %d split-ends, want 1", len(ends))
	}
}

// serveTable starts the telemetry surface over tbl's sources, the way a
// caller holding a bare table does.
func serveTable(tbl *Table, addr string) (*telemetry.Server, error) {
	return telemetry.Serve(addr, telemetry.Options{
		Registry: tbl.MetricsRegistry(),
		Ring:     tbl.Tracer().Ring(),
		Stats:    func() (any, error) { return tbl.MetricsSnapshot() },
		Heatmap:  func() (any, error) { return tbl.Heatmap() },
	})
}

// TestTelemetryEndpoints serves a traced table's sources and scrapes
// every endpoint: /metrics, /stats, /debug/events, /debug/heatmap and
// pprof all answer 200 with non-empty bodies while the table serves
// traffic.
func TestTelemetryEndpoints(t *testing.T) {
	tr := trace.New(1024)
	tbl := mustOpen(t, "", &Options{Bsize: 512, Ffactor: 8, Trace: tr})
	defer tbl.Close()
	srv, err := serveTable(tbl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	for i := 0; i < 100; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
		return body
	}

	if body := string(get("/metrics")); !strings.Contains(body, "# TYPE ") {
		t.Fatalf("/metrics has no TYPE lines:\n%s", body)
	}

	var stats struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(get("/stats"), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if stats.Counters[MetricPuts] != 100 || stats.Gauges[MetricBuckets] == 0 {
		t.Fatalf("/stats payload incomplete: %+v", stats)
	}

	var events struct {
		Count  int               `json:"count"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(get("/debug/events"), &events); err != nil {
		t.Fatalf("/debug/events not JSON: %v", err)
	}
	if events.Count == 0 {
		t.Fatal("/debug/events empty after 100 puts on ffactor 8")
	}
	get("/debug/events?type=split-begin&n=5")

	var hm struct {
		Buckets   uint32            `json:"buckets"`
		NKeys     int64             `json:"nkeys"`
		PerBucket []json.RawMessage `json:"per_bucket"`
	}
	if err := json.Unmarshal(get("/debug/heatmap"), &hm); err != nil {
		t.Fatalf("/debug/heatmap not JSON: %v", err)
	}
	if hm.NKeys != 100 || int(hm.Buckets) != len(hm.PerBucket) {
		t.Fatalf("/debug/heatmap inconsistent: %d keys, %d buckets, %d rows", hm.NKeys, hm.Buckets, len(hm.PerBucket))
	}

	get("/debug/pprof/")

	// Unknown filter type is a client error, not a 500.
	resp, err := client.Get("http://" + addr + "/debug/events?type=no-such-event")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad type filter: status %d, want 400", resp.StatusCode)
	}

	// A closed table under a live surface is a 500 naming the error, not
	// a stale document; closing the surface stops the port answering.
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/stats of a closed table: status %d, want 500", resp.StatusCode)
	}
	srv.Close()
	if _, err := client.Get("http://" + addr + "/stats"); err == nil {
		t.Fatal("telemetry server still answering after Close")
	}
}

// TestTelemetryBadAddr: an unusable address fails the starter and
// leaves the table usable.
func TestTelemetryBadAddr(t *testing.T) {
	tbl := mustOpen(t, "", nil)
	defer tbl.Close()
	if _, err := serveTable(tbl, "256.256.256.256:99999"); err == nil {
		t.Fatal("Serve succeeded on an unusable address")
	}
	if err := tbl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}
