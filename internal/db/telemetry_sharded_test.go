package db_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/server"
)

// TestShardedTelemetryFiltered is the e2e for the sharded observation
// surface with read acceleration live: a 4-shard database (tag filters
// on by default) under a hit/miss mix driven through the network server,
// whose ledgers land in the recorder ServeTelemetry is handed. The
// aggregated /metrics page must carry the labeled hash_filter_* series
// and the oplog histograms, /debug/heatmap must break per-bucket filter
// occupancy down per shard, /stats must carry the derived filter hit
// rate, and /debug/oplog must attribute the traffic this test drove.
func TestShardedTelemetryFiltered(t *testing.T) {
	reg := metrics.New()
	s, err := db.OpenSharded("", 4, &db.Config{Hash: &core.Options{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := oplog.NewRecorder(reg, s.NShards(), nil)
	front, err := server.Serve("127.0.0.1:0", server.Options{DB: s, Metrics: reg, Oplog: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	// One BATCH of 512 pairs, then 256 hits and 256 misses, unpipelined
	// inline commands over one connection.
	nc, err := net.Dial("tcp", front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	do := func(cmd, want string) {
		t.Helper()
		if _, err := io.WriteString(nc, cmd+"\r\n"); err != nil {
			t.Fatal(err)
		}
		var got []string
		for range strings.Split(want, "\r\n") {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("%.40s: %v", cmd, err)
			}
			got = append(got, strings.TrimRight(line, "\r\n"))
		}
		if g := strings.Join(got, "\r\n"); g != want {
			t.Fatalf("%.40s = %q, want %q", cmd, g, want)
		}
	}
	var batch strings.Builder
	batch.WriteString("BATCH")
	for i := 0; i < 512; i++ {
		fmt.Fprintf(&batch, " k%04d v", i)
	}
	do(batch.String(), ":512")
	for i := 0; i < 256; i++ {
		do(fmt.Sprintf("GET k%04d", i), "$1\r\nv")
		do(fmt.Sprintf("GET absent%04d", i), "$-1")
	}

	srv, err := db.ServeTelemetry(s, "127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// The merged metrics page: the filter series must appear with their
	// curated HELP text (not as bare unlabeled names), and the recorder's
	// histograms must have landed in the same registry.
	prom := string(get("/metrics"))
	for _, want := range []string{
		"# HELP hash_filter_skips_total Tag-filter",
		"# TYPE hash_filter_skips_total counter",
		"# HELP hash_filter_false_positives_total Tag-filter",
		"# TYPE oplog_op_get_seconds histogram",
		"# TYPE oplog_phase_filter_seconds histogram",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(prom, "hash_filter_skips_total 0\n") {
		t.Error("/metrics: the miss mix drove no filter skips")
	}

	// Per-shard heatmap with the per-bucket filter columns.
	var heat []struct {
		Shard   int `json:"shard"`
		Heatmap struct {
			Buckets uint32 `json:"buckets"`
		} `json:"heatmap"`
	}
	raw := get("/debug/heatmap")
	if err := json.Unmarshal(raw, &heat); err != nil {
		t.Fatalf("/debug/heatmap not a shard array: %v", err)
	}
	if len(heat) != 4 {
		t.Fatalf("/debug/heatmap has %d shards, want 4", len(heat))
	}
	for _, sh := range heat {
		if sh.Heatmap.Buckets == 0 {
			t.Errorf("/debug/heatmap shard %d reports zero buckets", sh.Shard)
		}
	}
	if !strings.Contains(string(raw), `"filter_tags"`) {
		t.Error("/debug/heatmap missing per-bucket filter columns")
	}

	// The stats document carries the derived filter and WAL detail.
	var stats struct {
		Hash struct {
			FilterSkips   int64
			FilterHitRate float64
		}
	}
	if err := json.Unmarshal(get("/stats"), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if stats.Hash.FilterSkips == 0 || stats.Hash.FilterHitRate == 0 {
		t.Errorf("/stats filter detail empty: skips=%d rate=%g",
			stats.Hash.FilterSkips, stats.Hash.FilterHitRate)
	}

	// The oplog summary must attribute the traffic above, and at least
	// one exemplar must have been retained for it.
	var sum oplog.Summary
	if err := json.Unmarshal(get("/debug/oplog"), &sum); err != nil {
		t.Fatalf("/debug/oplog not JSON: %v", err)
	}
	cmds := map[string]int64{}
	for _, cs := range sum.Commands {
		cmds[cs.Cmd] = cs.Count
	}
	if cmds["get"] != 512 || cmds["batch"] != 1 {
		t.Errorf("/debug/oplog commands = %v, want 512 gets and 1 batch", cmds)
	}
	var exs []oplog.ExemplarView
	if err := json.Unmarshal(get("/debug/oplog/exemplars"), &exs); err != nil {
		t.Fatalf("/debug/oplog/exemplars not JSON: %v", err)
	}
	if len(exs) == 0 {
		t.Error("/debug/oplog/exemplars is empty under recorded load")
	}
}
