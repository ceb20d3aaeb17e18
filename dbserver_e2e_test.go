package unixhash

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// serverProc is a dbserver subprocess and what it logged.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	mu   sync.Mutex
	log  strings.Builder
	done chan struct{} // stderr closed: the process is gone
}

func (p *serverProc) logged() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// startDBServer launches dbserver on dir and waits for its listening
// address.
func startDBServer(t *testing.T, bin, dir string, extra ...string) *serverProc {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-dir", dir, "-shards", "2"}, extra...)
	p := &serverProc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill(); p.cmd.Wait() })
	addrc := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log.WriteString(line + "\n")
			p.mu.Unlock()
			if _, a, ok := strings.Cut(line, " shards on "); ok {
				select {
				case addrc <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrc:
	case <-p.done:
		t.Fatalf("dbserver exited before listening:\n%s", p.logged())
	case <-time.After(30 * time.Second):
		t.Fatalf("dbserver did not start:\n%s", p.logged())
	}
	return p
}

// readReply reads one wire reply, rendering a bulk string as its value
// and nil as "$-1".
func readReply(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if !strings.HasPrefix(line, "$") || line == "$-1" {
		return line, nil
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil {
		return "", fmt.Errorf("bad bulk header %q", line)
	}
	buf := make([]byte, n+2)
	for got := 0; got < len(buf); {
		m, err := br.Read(buf[got:])
		if err != nil {
			return "", err
		}
		got += m
	}
	return string(buf[:n]), nil
}

// TestDBServerKillRecover is the crash drill of the one-log design, end
// to end on real files: SIGKILL a dbserver under two-connection TXN
// load, restart it on the same directory, and require every acknowledged
// transaction fully present and no transaction partially present. Then a
// graceful stop must leave the directory with nothing but its marker,
// its shards and a header-sized log, and the single-table tools must
// refuse a shard file by naming the directory.
//
// The server runs with a pool large enough that no dirty page is evicted
// between checkpoints, as in the crash matrices: with evictions a killed
// shard can hold post-checkpoint pages and core's strict gate is then
// entitled to refuse it loudly — that contract predates this test.
func TestDBServerKillRecover(t *testing.T) {
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
	dir := filepath.Join(t.TempDir(), "kv")
	srv := startDBServer(t, filepath.Join(bin, "dbserver"), dir, "-cache", "8388608")

	// Each connection commits its sequence number under three keys of its
	// own, one transaction per round trip.
	const conns, minAcked = 2, 150
	keysOf := func(c int) [3]string {
		return [3]string{fmt.Sprintf("c%d-a", c), fmt.Sprintf("c%d-b", c), fmt.Sprintf("c%d-c", c)}
	}
	var acked [conns]atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", srv.addr)
			if err != nil {
				t.Errorf("conn %d: %v", c, err)
				return
			}
			defer nc.Close()
			br, ks := bufio.NewReader(nc), keysOf(c)
			for seq := int64(1); ; seq++ {
				req := "TXN BEGIN\r\n"
				for _, k := range ks {
					req += fmt.Sprintf("PUT %s %d\r\n", k, seq)
				}
				req += "TXN COMMIT\r\n"
				if _, err := nc.Write([]byte(req)); err != nil {
					return // the server was killed
				}
				for i, want := range []string{"+OK", "+QUEUED", "+QUEUED", "+QUEUED", "+OK"} {
					got, err := readReply(br)
					if err != nil {
						return
					}
					if got != want {
						t.Errorf("conn %d seq %d reply %d = %q, want %q", c, seq, i, got, want)
						return
					}
				}
				acked[c].Store(seq)
			}
		}(c)
	}
	deadline := time.Now().Add(60 * time.Second)
	for acked[0].Load() < minAcked || acked[1].Load() < minAcked {
		if time.Now().After(deadline) {
			t.Fatalf("load too slow: %d and %d transactions acknowledged\n%s", acked[0].Load(), acked[1].Load(), srv.logged())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	srv.cmd.Wait()
	<-srv.done
	if fi, err := os.Stat(filepath.Join(dir, "wal")); err != nil || fi.Size() < 1000 {
		t.Fatalf("the killed server's log should hold its commits: %v, %v", fi, err)
	}

	// Restart on the same directory: dbserver recovers by itself.
	srv = startDBServer(t, filepath.Join(bin, "dbserver"), dir, "-cache", "8388608")
	if log := srv.logged(); strings.Count(log, "dbserver: shard ") != 2 || !strings.Contains(log, "replayed from the log") {
		t.Fatalf("restart should report one recovery line per shard, with replay:\n%s", log)
	}
	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	for c := 0; c < conns; c++ {
		var vals [3]string
		for i, k := range keysOf(c) {
			fmt.Fprintf(nc, "GET %s\r\n", k)
			if vals[i], err = readReply(br); err != nil {
				t.Fatal(err)
			}
		}
		// All three keys carry one sequence number (atomic across shards):
		// the last acknowledged one, or its successor if the kill landed
		// between that commit's fsync and its reply.
		a := acked[c].Load()
		if vals[0] != vals[1] || vals[1] != vals[2] {
			t.Fatalf("conn %d: transaction partially present after recovery: %v (acknowledged %d)", c, vals, a)
		}
		if got, _ := strconv.ParseInt(vals[0], 10, 64); got != a && got != a+1 {
			t.Fatalf("conn %d: recovered sequence %q, acknowledged %d", c, vals[0], a)
		}
	}
	t.Logf("killed after %d + %d acknowledged transactions; all present after restart", acked[0].Load(), acked[1].Load())

	// Graceful stop: checkpoint, header-sized log, nothing else around.
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.cmd.Wait(); err != nil {
		t.Fatalf("graceful stop: %v\n%s", err, srv.logged())
	}
	wantDir := func() {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		if got := strings.Join(names, " "); got != "SHARDS shard-000.db shard-001.db wal" {
			t.Fatalf("directory holds %q", got)
		}
		if fi, _ := os.Stat(filepath.Join(dir, "wal")); fi.Size() != 28 {
			t.Fatalf("log is %d bytes after a graceful stop, want the 28-byte header", fi.Size())
		}
	}
	wantDir()

	// The single-table tools must not bless a shard on its own.
	shard := filepath.Join(dir, "shard-000.db")
	for _, args := range [][]string{
		{"dbcli", shard, "verify"},
		{"dbcli", shard, "recover"},
		{"dbcli", shard, "count"},
		{"dbcli", "-wal", shard, "put", "k", "v"},
	} {
		out, err := exec.Command(filepath.Join(bin, args[0]), args[1:]...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "open the directory "+dir) {
			t.Fatalf("%v on a shard of a directory-log database: err=%v\n%s", args, err, out)
		}
	}
	wantDir()
}
