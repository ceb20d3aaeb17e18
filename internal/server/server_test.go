package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
	"unixhash/internal/trace"
	"unixhash/internal/wal"
)

// client is a minimal test-side speaker of the wire protocol.
type client struct {
	t  *testing.T
	nc net.Conn
	bw *bufio.Writer
	br *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{t: t, nc: nc, bw: bufio.NewWriter(nc), br: bufio.NewReader(nc)}
}

// send queues one command in array framing without flushing, so tests
// control the pipeline window explicitly.
func (c *client) send(args ...string) {
	fmt.Fprintf(c.bw, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(c.bw, "$%d\r\n%s\r\n", len(a), a)
	}
}

// recv flushes queued commands and reads one reply, rendered as
// "+OK", "-ERR ...", ":3", "$hello" or "$nil".
func (c *client) recv() string {
	c.t.Helper()
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	line, err := c.br.ReadString('\n')
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	line = strings.TrimRight(line, "\r\n")
	if !strings.HasPrefix(line, "$") {
		return line
	}
	var n int
	if _, err := fmt.Sscanf(line, "$%d", &n); err != nil {
		c.t.Fatalf("bad bulk header %q", line)
	}
	if n < 0 {
		return "$nil"
	}
	buf := make([]byte, n+2)
	if _, err := ioReadFull(c.br, buf); err != nil {
		c.t.Fatal(err)
	}
	return "$" + string(buf[:n])
}

func ioReadFull(r *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// do is send-then-recv for unpipelined use.
func (c *client) do(args ...string) string {
	c.t.Helper()
	c.send(args...)
	return c.recv()
}

func (c *client) expect(want string, args ...string) {
	c.t.Helper()
	if got := c.do(args...); got != want {
		c.t.Fatalf("%v = %q, want %q", args, got, want)
	}
}

func startServer(t *testing.T, d db.DB, reg *metrics.Registry) *Server {
	t.Helper()
	return startServerOplog(t, d, reg, nil)
}

func startServerOplog(t *testing.T, d db.DB, reg *metrics.Registry, rec *oplog.Recorder) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", Options{DB: d, Metrics: reg, Oplog: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// ledgerModes runs fn with attribution off (every command carries a nil
// ledger) and on (a live ledger per command, folded into a recorder), so
// the single call site per command is exercised both ways.
func ledgerModes(t *testing.T, fn func(t *testing.T, rec *oplog.Recorder)) {
	t.Run("oplog=off", func(t *testing.T) { fn(t, nil) })
	t.Run("oplog=on", func(t *testing.T) { fn(t, oplog.NewRecorder(nil, 4)) })
}

func TestServerBasicCommands(t *testing.T) {
	ledgerModes(t, func(t *testing.T, rec *oplog.Recorder) {
		d, err := db.OpenSharded("", 4, &db.Config{Hash: &core.Options{WAL: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		basicCommands(t, d, rec, `"Shards"`)
	})
	// A database without ledger methods behind live ledgers: the server's
	// adapter drops the ledger at the db boundary, the server's own
	// phases are still recorded. Embedding hides the ledger methods, as a
	// caller's decorator does.
	t.Run("adapter/oplog=on", func(t *testing.T) {
		h, err := db.Open("", db.Hash, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		var d db.DB = struct{ db.DB }{h}
		if _, ok := d.(db.OpDB); ok {
			t.Fatal("the embedding wrapper exposes ledger methods; the adapter case needs a plain db.DB")
		}
		rec := oplog.NewRecorder(nil, 1)
		basicCommands(t, d, rec, `"Oplog"`)
		cmds := map[string]int64{}
		for _, cs := range rec.Snapshot().Commands {
			cmds[cs.Cmd] = cs.Count
		}
		if cmds["get"] != 3 || cmds["delete"] != 2 || cmds["batch"] != 1 || cmds["put"] != 1 {
			t.Fatalf("recorded commands = %v, want 3 gets, 2 deletes, 1 batch, 1 put flush", cmds)
		}
	})
}

// failStatsDB is a caller's decorator whose Stats always fails.
type failStatsDB struct{ db.DB }

func (failStatsDB) Stats() (db.Stats, error) { return db.Stats{}, errors.New("injected stats failure") }

// TestServerStatsErrorIsRecorded: a STATS that fails answers -ERR and
// still leaves its ledger in the recorder, like every other verb's
// error path.
func TestServerStatsErrorIsRecorded(t *testing.T) {
	h, err := db.Open("", db.Hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rec := oplog.NewRecorder(nil, 1)
	c := dial(t, startServerOplog(t, failStatsDB{h}, nil, rec).Addr())
	if got := c.do("STATS"); !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "injected stats failure") {
		t.Fatalf("STATS = %q, want -ERR naming the failure", got)
	}
	var n int64
	for _, cs := range rec.Snapshot().Commands {
		if cs.Cmd == "stats" {
			n += cs.Count
		}
	}
	if n != 1 {
		t.Fatalf("recorded %d STATS commands, want 1", n)
	}
}

// TestCuratedHelpOnMetrics: server.Serve and core's filter group set
// their HELP text before registering each series; through the real
// registrations the curated text must reach the /metrics dump.
func TestCuratedHelpOnMetrics(t *testing.T) {
	reg := metrics.New()
	d, err := db.Open("", db.Hash, &db.Config{Hash: &core.Options{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	startServer(t, d, reg)
	var buf strings.Builder
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP server_cmds_total Commands executed\n",
		"# HELP hash_filter_skips_total Tag-filter consults that proved the key absent without touching the chain\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
}

func basicCommands(t *testing.T, d db.DB, rec *oplog.Recorder, wantStats string) {
	s := startServerOplog(t, d, nil, rec)
	c := dial(t, s.Addr())

	c.expect("+PONG", "PING")
	c.expect("$nil", "GET", "missing")
	c.expect("+OK", "PUT", "alpha", "one")
	c.expect("$one", "GET", "alpha")
	c.expect(":1", "DEL", "alpha")
	c.expect(":0", "DEL", "alpha")
	c.expect(":3", "BATCH", "a", "1", "b", "2", "c", "3")
	c.expect("$2", "GET", "b")
	if got := c.do("STATS"); !strings.Contains(got, wantStats) {
		t.Fatalf("STATS = %.120q, want a %s member", got, wantStats)
	}
	if got := c.do("NOPE"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("unknown command = %q", got)
	}
	if got := c.do("PUT", "only-key"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("bad arity = %q", got)
	}
	c.expect("+OK", "QUIT")
}

func TestServerInlineCommands(t *testing.T) {
	d, err := db.OpenSharded("", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServer(t, d, nil)
	c := dial(t, s.Addr())

	fmt.Fprintf(c.bw, "put k v\r\n") // lower case, inline framing
	if got := c.recv(); got != "+OK" {
		t.Fatalf("inline put = %q", got)
	}
	fmt.Fprintf(c.bw, "GET k\r\n")
	if got := c.recv(); got != "$v" {
		t.Fatalf("inline get = %q", got)
	}
}

func TestServerPipelining(t *testing.T) {
	ledgerModes(t, serverPipelining)
}

func serverPipelining(t *testing.T, rec *oplog.Recorder) {
	reg := metrics.New()
	d, err := db.OpenSharded("", 4, &db.Config{Hash: &core.Options{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServerOplog(t, d, reg, rec)
	c := dial(t, s.Addr())

	// One pipeline window: a run of PUTs (coalesced into one batch), a
	// GET that must observe them, more PUTs, and a final read. Replies
	// come back strictly in request order.
	const run = 50
	for i := 0; i < run; i++ {
		c.send("PUT", fmt.Sprintf("p%02d", i), "v")
	}
	c.send("GET", "p17")
	c.send("PUT", "tail", "end")
	c.send("GET", "tail")
	for i := 0; i < run; i++ {
		if got := c.recv(); got != "+OK" {
			t.Fatalf("pipelined PUT %d = %q", i, got)
		}
	}
	if got := c.recv(); got != "$v" {
		t.Fatalf("pipelined GET after PUT run = %q (read-your-writes broken)", got)
	}
	if got := c.recv(); got != "+OK" {
		t.Fatalf("tail PUT = %q", got)
	}
	if got := c.recv(); got != "$end" {
		t.Fatalf("tail GET = %q", got)
	}

	// The PUT run must have been coalesced, not applied one by one.
	coalesced := reg.Snapshot().Counter("server_puts_coalesced_total")
	if coalesced < run {
		t.Fatalf("server_puts_coalesced_total = %d, want >= %d", coalesced, run)
	}
}

// slowReadStore adds a fixed delay to every page read, so a request's
// ledgered phases (the buffer-pool fault brackets the read) dominate the
// scheduling noise between them and phase sums can be compared with
// end-to-end time.
type slowReadStore struct {
	pagefile.Store
	delay *atomic.Int64 // nanoseconds; shared, so a test can load fast and serve slow
}

func (s slowReadStore) ReadPage(pageno uint32, buf []byte) error {
	time.Sleep(time.Duration(s.delay.Load()))
	return s.Store.ReadPage(pageno, buf)
}

// TestServerOplogAccounting drives every ledgered dispatch branch — the
// path dbserver runs by default (-oplog=true) — over one pipelined
// connection and checks the recorder against what was sent: one ledger
// per command (one per coalesced PUT flush, not per PUT), a shard on
// every single-key and one-shard batch ledger, exemplar phases that sum
// exactly to elapsed time, and faulting reads whose time lands in the
// phase that waited.
func TestServerOplogAccounting(t *testing.T) {
	const (
		nshards  = 2
		bsize    = 512
		perShard = 200 // preloaded keys: ~25 buckets against an 8-page pool
	)
	var readDelay atomic.Int64
	stores := make([]pagefile.Store, nshards)
	for i := range stores {
		stores[i] = slowReadStore{pagefile.NewMem(bsize, pagefile.CostModel{}), &readDelay}
	}
	// The smallest pool, so requests for the preloaded keys fault.
	d, err := db.OpenShardedStores(stores, &db.Config{Hash: &core.Options{WAL: true, Bsize: bsize, Ffactor: 8, CacheSize: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Sort candidate keys by shard with the router itself. A batch that
	// spans shards charges its one ledger from the caller and a fan-out
	// goroutine at once, so its phase sum may legitimately exceed its
	// elapsed time, and it names no shard; each batch below stays inside
	// one shard, so it runs on the caller alone and names that shard.
	var byShard [nshards][]string
	for i := 0; len(byShard[0]) < perShard+20 || len(byShard[1]) < perShard+20; i++ {
		k := fmt.Sprintf("key-%04d", i)
		var led oplog.Ledger
		led.StartOp(oplog.CmdGet, []byte(k))
		if _, err := d.GetBufOp(&led, []byte(k), nil); !errors.Is(err, db.ErrNotFound) {
			t.Fatalf("probe %s: %v", k, err)
		}
		byShard[led.Shard()] = append(byShard[led.Shard()], k)
	}
	take := func(shard, n int) []string {
		ks := byShard[shard][:n]
		byShard[shard] = byShard[shard][n:]
		return ks
	}
	preloaded := append(take(0, perShard), take(1, perShard)...)
	var pre []db.Pair
	for _, k := range preloaded {
		pre = append(pre, db.Pair{Key: []byte(k), Data: []byte("old-" + k)})
	}
	if err := d.PutBatch(pre); err != nil {
		t.Fatal(err)
	}
	// Each read sleeps 20 ms, so a faulting exemplar's other work plus a
	// scheduling stall of up to ~2 ms (a runnable goroutine waiting for a
	// CPU while other packages test beside this one) stays under the 10 %
	// the accounting check below leaves it.
	readDelay.Store(int64(20 * time.Millisecond))

	rec := oplog.NewRecorder(nil, nshards)
	s, err := Serve("127.0.0.1:0", Options{DB: d, Oplog: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := dial(t, s.Addr())

	// One pipeline window (well under the client's 4 KiB write buffer,
	// so it leaves in one segment and the only coalescing barriers are
	// the non-PUT commands below).
	var want []string
	sent := map[string]int64{}
	cmd := func(name, reply string, args ...string) {
		c.send(args...)
		want = append(want, reply)
		sent[name]++
	}
	for _, k := range preloaded[:3] {
		cmd("get", "$old-"+k, "GET", k)
	}
	cmd("get", "$nil", "GET", "absent-1")
	cmd("get", "$nil", "GET", "absent-2")
	run1 := take(0, 6)
	for _, k := range run1 { // coalesced flush 1, ended by the GET
		c.send("PUT", k, "v1")
		want = append(want, "+OK")
	}
	sent["put"]++
	cmd("get", "$v1", "GET", run1[5])
	for _, k := range take(1, 4) { // coalesced flush 2, ended by the DEL
		c.send("PUT", k, "v2")
		want = append(want, "+OK")
	}
	sent["put"]++
	cmd("delete", ":1", "DEL", preloaded[perShard+7])
	cmd("delete", ":0", "DEL", "absent-3")
	batch := []string{"BATCH"}
	for _, k := range take(1, 5) {
		batch = append(batch, k, "b")
	}
	cmd("batch", ":5", batch...)
	c.send("TXN", "BEGIN")
	c.send("PUT", take(0, 1)[0], "t")
	c.send("PUT", take(1, 1)[0], "t")
	c.send("DEL", preloaded[4])
	want = append(want, "+OK", "+QUEUED", "+QUEUED", "+QUEUED")
	cmd("txn", "+OK", "TXN", "COMMIT")
	for i, w := range want {
		if got := c.recv(); got != w {
			t.Fatalf("reply %d = %q, want %q", i, got, w)
		}
	}
	// STATS goes in its own window, so the summary it embeds already
	// holds everything above.
	stats := c.do("STATS")
	sent["stats"]++
	var doc struct {
		Oplog *oplog.Summary
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(stats, "$")), &doc); err != nil {
		t.Fatalf("STATS is not JSON: %v", err)
	}
	if doc.Oplog == nil || len(doc.Oplog.Commands) == 0 {
		t.Fatalf("STATS does not embed the oplog summary: %.200q", stats)
	}
	s.Close() // drained: the last reply-flush ledger is recorded

	got := map[string]int64{}
	for _, cs := range rec.Snapshot().Commands {
		got[cs.Cmd] = cs.Count
	}
	for name, n := range sent {
		if got[name] != n {
			t.Errorf("recorder counted %d %s ledgers, sent %d", got[name], name, n)
		}
	}
	if got["other"] == 0 {
		t.Error("no reply-flush ledger recorded")
	}

	seen := map[string]bool{}
	faulting, minShare := 0, 1.0
	for _, e := range rec.Exemplars() {
		seen[e.Cmd] = true
		// Every single-key op and every one-shard batch names its shard.
		switch e.Cmd {
		case "get", "delete", "put", "batch":
			if e.Shard < 0 || e.Shard >= nshards {
				t.Errorf("%s exemplar %q carries shard %d", e.Cmd, e.Key, e.Shard)
			}
		}
		// Exact by construction: on_cpu is elapsed minus the timed phases,
		// and no request here charges two goroutines' phases at once.
		if e.PhaseUS != e.ElapsedUS {
			t.Errorf("%s exemplar: phases sum to %vus of %vus elapsed: %+v", e.Cmd, e.PhaseUS, e.ElapsedUS, e.Phases)
		}
		var fault float64
		for _, ps := range e.Phases {
			if ps.Phase == "buffer_fault" {
				fault = ps.Total * 1e3
			}
		}
		// Every fault sleeps in the store: the waiting must be named.
		if fault > 0 && (e.Cmd == "get" || e.Cmd == "delete") {
			faulting++
			minShare = min(minShare, fault/e.ElapsedUS)
			if fault < 0.9*e.ElapsedUS {
				t.Errorf("%s exemplar: buffer_fault %.0fus of %.0fus elapsed, want >= 90%%: %+v", e.Cmd, fault, e.ElapsedUS, e.Phases)
			}
		}
	}
	for name := range sent {
		if !seen[name] {
			t.Errorf("no %s exemplar retained", name)
		}
	}
	if faulting == 0 {
		t.Error("no faulting get or delete exemplar: the slow store was never read")
	}
	t.Logf("%d faulting exemplars, smallest buffer_fault share %.1f%%", faulting, 100*minShare)
}

func TestServerTxnAtomicityAcrossConnections(t *testing.T) {
	ledgerModes(t, serverTxnAtomicity)
}

func serverTxnAtomicity(t *testing.T, rec *oplog.Recorder) {
	d, err := db.OpenSharded("", 4, &db.Config{Hash: &core.Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServerOplog(t, d, nil, rec)
	writer := dial(t, s.Addr())
	reader := dial(t, s.Addr())

	writer.expect("+OK", "TXN", "BEGIN")
	for i := 0; i < 16; i++ {
		writer.expect("+QUEUED", "PUT", fmt.Sprintf("t%02d", i), "v")
	}
	// A second connection must not see any queued write before commit.
	reader.expect("$nil", "GET", "t00")
	reader.expect("$nil", "GET", "t15")
	writer.expect("+OK", "TXN", "COMMIT")
	// After commit every write is visible to everyone.
	reader.expect("$v", "GET", "t00")
	reader.expect("$v", "GET", "t15")

	// Rollback discards.
	writer.expect("+OK", "TXN", "BEGIN")
	writer.expect("+QUEUED", "PUT", "ghost", "boo")
	writer.expect("+OK", "TXN", "ROLLBACK")
	reader.expect("$nil", "GET", "ghost")

	// Txn misuse is a command error, not a dead connection.
	if got := writer.do("TXN", "COMMIT"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("commit without begin = %q", got)
	}
	writer.expect("+PONG", "PING")
}

func TestServerTxnWithoutWAL(t *testing.T) {
	d, err := db.OpenSharded("", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServer(t, d, nil)
	c := dial(t, s.Addr())
	if got := c.do("TXN", "BEGIN"); !strings.Contains(got, "write-ahead log") && !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("TXN BEGIN without WAL = %q, want -ERR", got)
	}
	c.expect("+PONG", "PING") // connection survives
}

// failSyncDev is a log device whose fsync can be made to fail.
type failSyncDev struct {
	*wal.MemDevice
	fail atomic.Bool
}

func (d *failSyncDev) Sync() error {
	if d.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return d.MemDevice.Sync()
}

// TestServerTxnLogFault: a commit whose log fsync fails answers -ERR,
// is not visible to anyone, and the database refuses transactions from
// every connection afterwards — while reads and plain writes go on and
// no connection is dropped.
func TestServerTxnLogFault(t *testing.T) {
	dev := &failSyncDev{MemDevice: wal.NewMemDevice()}
	d, err := db.OpenSharded("", 2, &db.Config{Hash: &core.Options{WALDevice: dev}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServer(t, d, nil)
	a, b := dial(t, s.Addr()), dial(t, s.Addr())

	a.expect("+OK", "TXN", "BEGIN")
	a.expect("+QUEUED", "PUT", "k1", "good")
	a.expect("+OK", "TXN", "COMMIT")

	dev.fail.Store(true)
	a.expect("+OK", "TXN", "BEGIN")
	a.expect("+QUEUED", "PUT", "k1", "lost")
	a.expect("+QUEUED", "PUT", "k2", "lost")
	if got := a.do("TXN", "COMMIT"); !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "injected fsync failure") {
		t.Fatalf("commit on a failing log = %q, want -ERR naming the fault", got)
	}
	b.expect("$good", "GET", "k1")
	b.expect("$nil", "GET", "k2")

	dev.fail.Store(false) // the device heals; the refusal stays
	for _, c := range []*client{a, b} {
		if got := c.do("TXN", "BEGIN"); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("TXN BEGIN after a log fault = %q, want -ERR", got)
		}
		c.expect("+PONG", "PING")
	}
	b.expect("+OK", "PUT", "k3", "plain")
	a.expect("$plain", "GET", "k3")
}

func TestServerShutdownDrains(t *testing.T) {
	d, err := db.OpenSharded("", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := Serve("127.0.0.1:0", Options{DB: d})
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, s.Addr())
	// Park a pipeline the server has read but whose window hasn't been
	// answered when Close lands: the writes must still apply.
	for i := 0; i < 20; i++ {
		c.send("PUT", fmt.Sprintf("d%02d", i), "v")
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to absorb the window, then close.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain")
	}
	// Every pipelined write landed before the server went quiet.
	if n := d.Len(); n != 20 {
		t.Fatalf("after drain Len = %d, want 20", n)
	}
	// And the client got its replies before the goodbye.
	for i := 0; i < 20; i++ {
		if got := c.recv(); got != "+OK" {
			t.Fatalf("drained reply %d = %q", i, got)
		}
	}
}

func TestServerConcurrentConnections(t *testing.T) {
	reg := metrics.New()
	d, err := db.OpenSharded("", 8, &db.Config{Hash: &core.Options{Metrics: reg, WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServer(t, d, reg)

	const (
		conns = 8
		ops   = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer nc.Close()
			bw := bufio.NewWriter(nc)
			br := bufio.NewReader(nc)
			// Pipelined writes, a txn, then verify reads — all raw so the
			// workers stay independent of testing.T.
			for i := 0; i < ops; i++ {
				fmt.Fprintf(bw, "PUT w%d-%03d v%d\r\n", w, i, i)
			}
			fmt.Fprintf(bw, "TXN BEGIN\r\nPUT w%d-txn committed\r\nTXN COMMIT\r\n", w)
			bw.Flush()
			for i := 0; i < ops+3; i++ {
				if _, err := br.ReadString('\n'); err != nil {
					errs <- fmt.Errorf("worker %d reply %d: %w", w, i, err)
					return
				}
			}
			for _, probe := range []string{fmt.Sprintf("w%d-000", w), fmt.Sprintf("w%d-txn", w)} {
				fmt.Fprintf(bw, "GET %s\r\n", probe)
				bw.Flush()
				head, err := br.ReadString('\n')
				if err != nil || strings.HasPrefix(head, "$-1") || strings.HasPrefix(head, "-") {
					errs <- fmt.Errorf("worker %d GET %s = %q, %v", w, probe, head, err)
					return
				}
				var n int
				fmt.Sscanf(head, "$%d", &n)
				if _, err := ioReadFull(br, make([]byte, n+2)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := d.Len(); n != conns*(ops+1) {
		t.Fatalf("Len = %d, want %d", n, conns*(ops+1))
	}
}

func TestServerProtocolErrors(t *testing.T) {
	d, err := db.OpenSharded("", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServer(t, d, nil)

	// A malformed array header poisons the stream: -ERR then close.
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fmt.Fprintf(nc, "*notanumber\r\n")
	br := bufio.NewReader(nc)
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "-ERR") {
		t.Fatalf("malformed header reply = %q, %v", line, err)
	}
	if _, err := br.ReadString('\n'); err == nil {
		t.Fatal("connection survived a framing error")
	}
}

// TestExemplarCarriesEvents pins the join that replaced the slow-op
// tracer: a traced sharded database behind the server takes one BATCH
// large enough to split, and the batch's exemplar on the telemetry
// surface carries the split events emitted during it, every one inside
// the ring span the ledger noted.
func TestExemplarCarriesEvents(t *testing.T) {
	tr := trace.New(1 << 14)
	d, err := db.OpenSharded("", 2, &db.Config{Hash: &core.Options{Bsize: 512, Ffactor: 8, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := oplog.NewRecorder(nil, d.NShards())
	s := startServerOplog(t, d, nil, rec)
	ts, err := db.ServeTelemetry(d, "127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	args := []string{"BATCH"}
	for i := 0; i < 600; i++ {
		args = append(args, fmt.Sprintf("split-key-%04d", i), "value")
	}
	c := dial(t, s.Addr())
	// A batch into an empty table presizes instead of splitting; seed one
	// key per shard's worth first (a PUT, so the BATCH below is the only
	// batch exemplar).
	for i := 0; i < 8; i++ {
		c.expect("+OK", "PUT", fmt.Sprintf("seed-%d", i), "v")
	}
	c.expect(":600", args...)

	resp, err := http.Get(ts.URL() + "/debug/oplog/exemplars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var exs []struct {
		Cmd       string `json:"cmd"`
		TraceSeq0 uint64 `json:"trace_seq0"`
		TraceSeq1 uint64 `json:"trace_seq1"`
		Events    []struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&exs); err != nil {
		t.Fatalf("/debug/oplog/exemplars: %v", err)
	}
	for _, ex := range exs {
		if ex.Cmd != "batch" {
			continue
		}
		count := map[string]int{}
		for _, ev := range ex.Events {
			if ev.Seq < ex.TraceSeq0 || ev.Seq >= ex.TraceSeq1 {
				t.Fatalf("event %d (%s) outside the exemplar's span [%d, %d)", ev.Seq, ev.Type, ex.TraceSeq0, ex.TraceSeq1)
			}
			count[ev.Type]++
		}
		if count["split-begin"] == 0 || count["split-end"] == 0 {
			t.Fatalf("batch exemplar's events carry no split: %v over span [%d, %d)", count, ex.TraceSeq0, ex.TraceSeq1)
		}
		// Both shards split, so the span is the fan-out's, not one shard's.
		if begins := len(tr.Events(0, trace.EvSplitBegin)); count["split-begin"] != begins {
			t.Fatalf("exemplar carries %d of the ring's %d split-begin events", count["split-begin"], begins)
		}
		return
	}
	t.Fatalf("no batch exemplar among %d", len(exs))
}
