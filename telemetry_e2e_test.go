package unixhash

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTelemetryEndToEnd is the CI smoke for the live observation
// surface of the binary that ships: it builds dbserver and dbcli, starts
// `dbserver -shards 2 -telemetry 127.0.0.1:0` on a fresh directory,
// loads it over a socket (BATCHes big enough to split, GET hits and
// misses, one TXN), scrapes every endpoint the index lists — plus a
// one-second CPU profile — and watches the server through `dbcli
// hashmon`. Any non-200 status or empty body fails; so does an exemplar
// set in which no request carries the ring events of its span.
func TestTelemetryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"dbserver", "dbcli"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	srv := startDBServer(t, filepath.Join(bin, "dbserver"), filepath.Join(t.TempDir(), "kv"), "-telemetry", "127.0.0.1:0")
	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(20 * time.Millisecond) {
		if _, rest, ok := strings.Cut(srv.logged(), "dbserver: telemetry "); ok {
			base, _, _ = strings.Cut(rest, "\n")
		} else if time.Now().After(deadline) {
			t.Fatalf("dbserver did not announce its telemetry address:\n%s", srv.logged())
		}
	}

	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	do := func(want, cmd string) {
		t.Helper()
		if _, err := io.WriteString(nc, cmd+"\r\n"); err != nil {
			t.Fatal(err)
		}
		if got, err := readReply(br); err != nil || got != want {
			t.Fatalf("%.40s = %q, %v; want %q", cmd, got, err, want)
		}
	}
	for b := 0; b < 4; b++ {
		var batch strings.Builder
		batch.WriteString("BATCH")
		for i := 0; i < 500; i++ {
			fmt.Fprintf(&batch, " key-%d-%03d value-%03d", b, i, i)
		}
		do(":500", batch.String())
	}
	for i := 0; i < 200; i++ {
		do(fmt.Sprintf("value-%03d", i), fmt.Sprintf("GET key-1-%03d", i))
		do("$-1", fmt.Sprintf("GET absent-%03d", i))
	}
	do("+OK", "TXN BEGIN")
	do("+QUEUED", "PUT txn-a 1")
	do("+QUEUED", "DEL key-0-000")
	do("+OK", "TXN COMMIT")

	client := &http.Client{Timeout: 30 * time.Second}
	fetch := func(path string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, body
	}
	get := func(path string) []byte {
		t.Helper()
		code, body := fetch(path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d: %s", path, code, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
		return body
	}

	// Every endpoint the index lists answers.
	listed := 0
	for _, line := range strings.Split(string(get("/")), "\n") {
		if strings.HasPrefix(line, "/") {
			get(strings.Fields(line)[0])
			listed++
		}
	}
	if listed < 7 {
		t.Fatalf("index lists %d endpoints, want at least 7", listed)
	}
	if code, _ := fetch("/debug/slowops"); code != http.StatusNotFound {
		t.Fatalf("/debug/slowops: HTTP %d, want 404", code)
	}

	prom := string(get("/metrics"))
	for _, want := range []string{
		"# TYPE hash_gets_total counter",
		"# TYPE server_cmds_total counter",
		"# TYPE oplog_op_get_seconds histogram",
		"# TYPE trace_events_dropped_total counter",
		"# TYPE oplog_ledgers_dropped_total counter",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%.500s", want, prom)
		}
	}
	var stats struct {
		Shards []json.RawMessage
	}
	if err := json.Unmarshal(get("/stats"), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("/stats has %d shards, want 2", len(stats.Shards))
	}
	var events struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(get("/debug/events?type=split-begin"), &events); err != nil {
		t.Fatalf("/debug/events not JSON: %v", err)
	}
	if events.Count == 0 {
		t.Fatal("/debug/events?type=split-begin empty after 2000 batched inserts")
	}
	var heat []struct {
		Heatmap struct {
			Buckets uint32 `json:"buckets"`
		} `json:"heatmap"`
	}
	if err := json.Unmarshal(get("/debug/heatmap"), &heat); err != nil {
		t.Fatalf("/debug/heatmap not JSON: %v", err)
	}
	if len(heat) != 2 || heat[0].Heatmap.Buckets == 0 {
		t.Fatalf("/debug/heatmap = %+v, want two shards with buckets", heat)
	}

	// The one slow-request record: some exemplar (a splitting BATCH, the
	// TXN) spans ring events and carries them inline.
	var exs []struct {
		Cmd       string            `json:"cmd"`
		TraceSeq0 uint64            `json:"trace_seq0"`
		TraceSeq1 uint64            `json:"trace_seq1"`
		Events    []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(get("/debug/oplog/exemplars"), &exs); err != nil {
		t.Fatalf("/debug/oplog/exemplars not JSON: %v", err)
	}
	joined := false
	for _, ex := range exs {
		if ex.TraceSeq1 > ex.TraceSeq0 && len(ex.Events) > 0 {
			joined = true
		}
	}
	if !joined {
		t.Fatalf("no exemplar carries the events of its span: %+v", exs)
	}
	get("/debug/pprof/profile?seconds=1")

	// hashmon: two quick polls must see the server moving.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fmt.Fprintf(nc, "GET key-2-%03d\r\n", i%500); err != nil {
				return
			}
			if _, err := readReply(br); err != nil {
				return
			}
		}
	}()
	out, err := exec.Command(filepath.Join(bin, "dbcli"), "hashmon", strings.TrimPrefix(base, "http://"), "300ms", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("dbcli hashmon: %v\n%s", err, out)
	}
	for _, want := range []string{"changed)", "Gets", "op ledger live"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("hashmon output lacks %q:\n%s", want, out)
		}
	}
	fmt.Println("telemetry smoke ok:", base)
}
