// Package server is the network front end: a concurrent key/data
// server that speaks a small RESP-like text protocol over TCP and
// serves a db.DB — in production a db.Sharded database, so that N
// shards (each its own WAL-backed hash table and buffer pool) absorb
// writes from many connections in parallel instead of serializing on
// one table lock.
//
// # Wire protocol
//
// Requests are commands; a command is an array of bulk strings in the
// RESP framing, or a space-separated inline line for hand-typed use:
//
//	*3\r\n$3\r\nPUT\r\n$1\r\nk\r\n$1\r\nv\r\n
//	PUT k v\r\n
//
// Inline commands cannot carry spaces or CR/LF in arguments; the array
// form is binary-clean. Replies are typed by their first byte:
//
//	+OK\r\n          status
//	-ERR message\r\n error
//	:12\r\n          integer
//	$5\r\nhello\r\n  bulk value
//	$-1\r\n          nil (key not found)
//
// Commands: GET k · PUT k v · DEL k · BATCH k1 v1 [k2 v2 ...] ·
// TXN BEGIN|COMMIT|ROLLBACK · STATS · PING · QUIT. See conn.go for
// their semantics, pipelining, and the write-coalescing rules.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Framing limits: a command that exceeds them is a protocol error and
// closes the connection (the stream position can no longer be trusted).
const (
	// maxArgs bounds one command's argument count. BATCH is the widest
	// command: one coalescer window of pairs plus the verb.
	maxArgs = 2*maxCoalesce + 1
	// maxBulk bounds one bulk string (a key or value).
	maxBulk = 8 << 20
	// readerSize is the connection read-buffer size; it also bounds one
	// inline command line.
	readerSize = 64 << 10
)

// errProtocol marks unrecoverable framing errors; the connection is
// closed after reporting one.
var errProtocol = errors.New("protocol error")

// reader parses the request stream. Argument slices are freshly
// allocated per command: callers may retain them (the coalescing
// buffer does, across commands, until its batch flushes).
type reader struct {
	br *bufio.Reader
}

func newReader(r io.Reader) *reader {
	return &reader{br: bufio.NewReaderSize(r, readerSize)}
}

// buffered reports how many request bytes are already in memory; zero
// means the next ReadCommand will block on the network, which is the
// pipeline-window boundary the connection flushes at.
func (r *reader) buffered() int { return r.br.Buffered() }

// ReadCommand reads one command, in either framing. io.EOF is returned
// bare for a clean close between commands; inside a command it becomes
// ErrUnexpectedEOF.
func (r *reader) ReadCommand() ([][]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 { // bare CRLF between commands: tolerate
		return nil, nil
	}
	if line[0] != '*' {
		return splitInline(line), nil
	}
	n, err := parseInt(line[1:])
	if err != nil || n < 1 || n > maxArgs {
		return nil, fmt.Errorf("%w: bad array header %q", errProtocol, line)
	}
	args := make([][]byte, n)
	for i := range args {
		if args[i], err = r.readBulk(); err != nil {
			return nil, err
		}
	}
	return args, nil
}

// readBulk reads one $-framed string: a length line, the payload, and
// its trailing CRLF.
func (r *reader) readBulk() ([]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, inCommand(err)
	}
	if len(line) == 0 || line[0] != '$' {
		return nil, fmt.Errorf("%w: want bulk header, got %q", errProtocol, line)
	}
	n, err := parseInt(line[1:])
	if err != nil || n < 0 || n > maxBulk {
		return nil, fmt.Errorf("%w: bad bulk length %q", errProtocol, line)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, inCommand(err)
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, fmt.Errorf("%w: bulk string missing CRLF terminator", errProtocol)
	}
	return buf[:n:n], nil
}

// readLine reads up to CRLF (LF alone is accepted for hand-typed
// sessions) and strips the terminator. A line longer than the read
// buffer is a protocol error.
func (r *reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return nil, fmt.Errorf("%w: line exceeds %d bytes", errProtocol, readerSize)
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	out := make([]byte, len(line))
	copy(out, line)
	return out, nil
}

// inCommand upgrades a mid-command EOF so callers can distinguish a
// clean close from a truncated request.
func inCommand(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// splitInline tokenizes an inline command on runs of spaces.
func splitInline(line []byte) [][]byte {
	var args [][]byte
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			j++
		}
		if j > i {
			args = append(args, line[i:j:j])
		}
		i = j
	}
	return args
}

// parseInt is strconv.Atoi over a byte slice without the string copy.
func parseInt(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, strconv.ErrSyntax
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, strconv.ErrSyntax
		}
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, strconv.ErrSyntax
		}
		n = n*10 + int(c-'0')
		if n > 1<<40 {
			return 0, strconv.ErrRange
		}
	}
	if neg {
		n = -n
	}
	return n, nil
}

// writer emits replies into a buffered stream; the connection decides
// when to Flush (at pipeline-window boundaries, not per reply).
type writer struct {
	bw  *bufio.Writer
	num [24]byte // scratch for integer formatting
}

func newWriter(w io.Writer) *writer {
	return &writer{bw: bufio.NewWriterSize(w, readerSize)}
}

func (w *writer) Flush() error { return w.bw.Flush() }

// buffered reports how many reply bytes await a Flush; the connection
// uses it to skip reply-write attribution for an empty window.
func (w *writer) buffered() int { return w.bw.Buffered() }

func (w *writer) Status(s string) {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// Error writes an -ERR reply; CR/LF in the message would break framing,
// so they are replaced.
func (w *writer) Error(msg string) {
	w.bw.WriteString("-ERR ")
	for i := 0; i < len(msg); i++ {
		if c := msg[i]; c == '\r' || c == '\n' {
			w.bw.WriteByte(' ')
		} else {
			w.bw.WriteByte(c)
		}
	}
	w.bw.WriteString("\r\n")
}

func (w *writer) Int(n int64) {
	w.bw.WriteByte(':')
	w.bw.Write(strconv.AppendInt(w.num[:0], n, 10))
	w.bw.WriteString("\r\n")
}

func (w *writer) Bulk(b []byte) {
	w.bw.WriteByte('$')
	w.bw.Write(strconv.AppendInt(w.num[:0], int64(len(b)), 10))
	w.bw.WriteString("\r\n")
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

func (w *writer) Nil() { w.bw.WriteString("$-1\r\n") }
