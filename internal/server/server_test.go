package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/metrics"
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
	s, err := Serve("127.0.0.1:0", Options{DB: d, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerBasicCommands(t *testing.T) {
	d, err := db.OpenSharded("", 4, &db.Config{Hash: &core.Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServer(t, d, nil)
	c := dial(t, s.Addr())

	c.expect("+PONG", "PING")
	c.expect("$nil", "GET", "missing")
	c.expect("+OK", "PUT", "alpha", "one")
	c.expect("$one", "GET", "alpha")
	c.expect(":1", "DEL", "alpha")
	c.expect(":0", "DEL", "alpha")
	c.expect(":3", "BATCH", "a", "1", "b", "2", "c", "3")
	c.expect("$2", "GET", "b")
	if got := c.do("STATS"); !strings.Contains(got, `"Shards"`) {
		t.Fatalf("STATS = %.120q, want per-shard breakdown", got)
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
	reg := metrics.New()
	d, err := db.OpenSharded("", 4, &db.Config{Hash: &core.Options{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServer(t, d, reg)
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

func TestServerTxnAtomicityAcrossConnections(t *testing.T) {
	d, err := db.OpenSharded("", 4, &db.Config{Hash: &core.Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServer(t, d, nil)
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
