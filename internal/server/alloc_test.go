package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/oplog"
)

// encode renders commands in array framing, one after another, as a
// client pipelines them.
func encode(cmds ...[]string) []byte {
	var b bytes.Buffer
	for _, args := range cmds {
		fmt.Fprintf(&b, "*%d\r\n", len(args))
		for _, a := range args {
			fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
		}
	}
	return b.Bytes()
}

// bulk renders a bulk-value reply.
func bulk(v string) string { return fmt.Sprintf("$%d\r\n%s\r\n", len(v), v) }

// runWindow feeds one request window to c the way serve does between
// two network reads — the arena is reset whenever no PUT is parked — and
// then applies what is parked and flushes the replies.
func runWindow(tb testing.TB, c *conn, src *bytes.Reader, window []byte) {
	src.Reset(window)
	c.r.br.Reset(src)
	for {
		if len(c.pending) == 0 {
			c.r.reset()
		}
		args, err := c.r.ReadCommand()
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		if !c.dispatch(args, 0) {
			tb.Fatal("connection closed")
		}
	}
	c.flushPending()
	if err := c.w.Flush(); err != nil {
		tb.Fatal(err)
	}
}

// TestServerCommandAllocs: past warm-up a command costs nothing from the
// heap on its way from the wire to the page. Header lines are parsed in
// the read buffer, arguments land in the connection's arena, the
// argument vector and the pair vector are reused, and the batch's write
// set comes from a pool. The database has one shard, so a window's batch
// runs on the caller; what a batch spanning shards pays to fan out is
// TestShardedBatchAllocs' bound in internal/db.
func TestServerCommandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ledgerModes(t, func(t *testing.T, rec *oplog.Recorder) {
		d, err := db.OpenSharded("", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		s := startServerOplog(t, d, nil, rec)
		var out bytes.Buffer
		src := bytes.NewReader(nil)
		c := &conn{srv: s, r: newReader(src), w: newWriter(&out)}
		if rec != nil {
			c.led = new(oplog.Ledger)
		}

		var puts, batch [][]string
		var putReplies string
		batch = append(batch, []string{"BATCH"})
		for i := 0; i < 64; i++ {
			k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i)
			puts = append(puts, []string{"PUT", k, v})
			putReplies += "+OK\r\n"
			if i < 16 {
				batch[0] = append(batch[0], k, "b"+v)
			}
		}
		windows := []struct {
			name, want string
			req        []byte
			cmds       int
		}{
			{"put-window", putReplies, encode(puts...), 64},
			{"get", bulk("value-007"), encode([]string{"GET", "key-007"}), 1},
			{"inline-get", bulk("value-009"), []byte("get key-009\r\n"), 1},
			{"batch", ":16\r\n", encode(batch...), 1},
		}
		for _, w := range windows {
			out.Reset()
			runWindow(t, c, src, w.req) // warm-up: inserts, presize, arena growth
			if out.String() != w.want {
				t.Fatalf("%s: replies %q, want %q", w.name, out.String(), w.want)
			}
		}
		c.w = newWriter(io.Discard)
		for _, w := range windows {
			allocs := testing.AllocsPerRun(100, func() { runWindow(t, c, src, w.req) })
			if perCmd := allocs / float64(w.cmds); perCmd != 0 {
				t.Errorf("%s: %.2f allocations per command, want 0", w.name, perCmd)
			}
		}
	})
}

// exchange sends req on a fresh connection in one write, from another
// goroutine so that replies cannot back up into the sender, and returns
// every reply byte until the server closes (QUIT or a protocol error).
func exchange(t *testing.T, addr string, req []byte) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	werr := make(chan error, 1)
	go func() {
		_, err := nc.Write(req)
		werr <- err
	}()
	got, err := io.ReadAll(nc)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read replies: %v (after %d bytes)", err, len(got))
	}
	if err := <-werr; err != nil {
		t.Fatalf("write request: %v", err)
	}
	return string(got)
}

// arenaValue is key i's value: size bytes that differ from every other
// key's at every offset, so bytes written over from another argument
// show.
func arenaValue(i, size int) string {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte('a' + (i*7+j)%26)
	}
	return string(b)
}

// checkReplies compares two reply streams byte for byte, naming the first
// difference instead of printing half a megabyte.
func checkReplies(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	lo := max(n-40, 0)
	t.Fatalf("replies differ at byte %d of %d (want %d): got %q, want %q",
		n, len(got), len(want), got[lo:min(n+40, len(got))], want[lo:min(n+40, len(want))])
}

// TestArenaParkedPutsSurviveRegrowth: one pipelined window parks PUTs
// whose values run from 1 B to 256 KiB, so the arena is replaced several
// times while earlier PUTs still point into it; then it GETs every key.
// Every reply and every value must match byte for byte. The reader is
// also driven alone over the same window, keeping every argument and
// never resetting, so the old blocks are checked after every
// replacement.
func TestArenaParkedPutsSurviveRegrowth(t *testing.T) {
	ledgerModes(t, func(t *testing.T, rec *oplog.Recorder) {
		d, err := db.OpenSharded("", 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		s := startServerOplog(t, d, nil, rec)

		var cmds [][]string
		var want strings.Builder
		vals := map[string]string{}
		for i := 0; i <= 18; i++ {
			for _, k := range []string{fmt.Sprintf("big-%02d", i), fmt.Sprintf("small-%02d", i)} {
				v := arenaValue(len(vals), 1<<i)
				if k[0] == 's' {
					v = arenaValue(len(vals), 3)
				}
				vals[k] = v
				cmds = append(cmds, []string{"PUT", k, v})
				want.WriteString("+OK\r\n")
			}
		}
		n := len(cmds)
		for _, put := range cmds[:n] {
			cmds = append(cmds, []string{"GET", put[1]})
			want.WriteString(bulk(vals[put[1]]))
		}
		cmds = append(cmds, []string{"QUIT"})
		want.WriteString("+OK\r\n")
		req := encode(cmds...)

		r := newReader(bytes.NewReader(req))
		var kept [][]byte
		for i := 0; i < n; i++ {
			args, err := r.ReadCommand()
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, args[1], args[2])
		}
		for i := 0; i < n; i++ {
			if string(kept[2*i]) != cmds[i][1] || string(kept[2*i+1]) != cmds[i][2] {
				t.Fatalf("PUT %d's arguments changed after the arena was replaced", i)
			}
		}

		checkReplies(t, exchange(t, s.Addr(), req), want.String())
	})
}

// TestArenaTxnQueuedPutSurvivesReuse: a transaction retains nothing of
// the arena (its Put copies), so the commands between a queued PUT and
// COMMIT reuse the very bytes the PUT arrived in; what commits and reads
// back is still the queued value.
func TestArenaTxnQueuedPutSurvivesReuse(t *testing.T) {
	d, err := db.OpenSharded("", 2, &db.Config{Hash: &core.Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := startServer(t, d, nil)
	req := encode(
		[]string{"PUT", "pre-key", "pre-value-bytes"},
		[]string{"TXN", "BEGIN"},
		[]string{"PUT", "txn-key", "txn-value-bytes"},
		// Same-length arguments: each lands where the queued PUT's did.
		[]string{"GET", "pre-key"},
		[]string{"PUT", "two-key", "two-value-bytes"},
		[]string{"DEL", "pre-key"},
		[]string{"PING"},
		[]string{"txn", "commit"},
		[]string{"GET", "txn-key"},
		[]string{"GET", "two-key"},
		[]string{"GET", "pre-key"},
		[]string{"QUIT"},
	)
	want := "+OK\r\n+OK\r\n+QUEUED\r\n" + bulk("pre-value-bytes") + "+QUEUED\r\n+QUEUED\r\n+PONG\r\n+OK\r\n" +
		bulk("txn-value-bytes") + bulk("two-value-bytes") + "$-1\r\n+OK\r\n"
	checkReplies(t, exchange(t, s.Addr(), req), want)
}

// TestArenaBatchInlineAndReadError: a BATCH between parked PUTs, inline
// commands among them, and a protocol error mid-window. The PUTs parked
// before the error still apply, as the pipelining contract promises, and
// every key reads back from a second connection.
func TestArenaBatchInlineAndReadError(t *testing.T) {
	ledgerModes(t, func(t *testing.T, rec *oplog.Recorder) {
		d, err := db.OpenSharded("", 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		s := startServerOplog(t, d, nil, rec)
		var req []byte
		req = append(req, encode(
			[]string{"PUT", "a1", "value-a1"},
			[]string{"PUT", "a2", "value-a2"},
			[]string{"BATCH", "b1", "value-b1", "b2", "value-b2", "b3", "value-b3"},
			[]string{"PUT", "a3", "value-a3"},
		)...)
		req = append(req, "put i1 value-i1\r\nGET a1\r\n"...)
		req = append(req, encode(
			[]string{"PUT", "a4", "value-a4"},
			[]string{"PUT", "a5", "value-a5"},
		)...)
		req = append(req, "put i2 value-i2\r\n*notanumber\r\n"...)
		want := "+OK\r\n+OK\r\n:3\r\n+OK\r\n+OK\r\n" + bulk("value-a1") + "+OK\r\n+OK\r\n+OK\r\n" +
			fmt.Sprintf("-ERR %v: bad array header %q\r\n", errProtocol, "*notanumber")
		checkReplies(t, exchange(t, s.Addr(), req), want)

		keys := []string{"a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "i1", "i2"}
		var gets [][]string
		want = ""
		for _, k := range keys {
			gets = append(gets, []string{"GET", k})
			want += bulk("value-" + k)
		}
		gets = append(gets, []string{"QUIT"})
		checkReplies(t, exchange(t, s.Addr(), encode(gets...)), want+"+OK\r\n")
	})
}

// BenchmarkServerWindow: what one pipelined window costs through a
// served connection, socket included: 64 PUTs (one coalesced batch over
// four shards) and then 16 GETs, each window written at once and its
// replies read back. allocs/op is the window's, client included.
func BenchmarkServerWindow(b *testing.B) {
	d, err := db.OpenSharded("", 4, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	s, err := Serve("127.0.0.1:0", Options{DB: d})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()

	var puts, gets [][]string
	var getReply strings.Builder
	for i := 0; i < 64; i++ {
		k, v := fmt.Sprintf("key-%03d", i), arenaValue(i, 100)
		puts = append(puts, []string{"PUT", k, v})
		if i%4 == 0 {
			gets = append(gets, []string{"GET", k})
			getReply.WriteString(bulk(v))
		}
	}
	putReq, getReq := encode(puts...), encode(gets...)
	putWant, getWant := strings.Repeat("+OK\r\n", len(puts)), getReply.String()
	buf := make([]byte, max(len(putWant), len(getWant)))
	window := func(req []byte, want string) {
		if _, err := nc.Write(req); err != nil {
			b.Fatal(err)
		}
		got := buf[:len(want)]
		if _, err := io.ReadFull(nc, got); err != nil {
			b.Fatal(err)
		}
		if string(got) != want {
			b.Fatalf("replies %q, want %q", got, want)
		}
	}
	window(putReq, putWant) // insert and presize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window(putReq, putWant)
		window(getReq, getWant)
	}
}
