package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// client is one connection speaking dbserver's wire protocol: requests
// are RESP arrays of bulk strings (binary-clean), replies are typed by
// their first byte. It knows nothing else about the server.
type client struct {
	nc  net.Conn
	br  *bufio.Reader
	out []byte // request bytes built but not yet written
}

func dial(addr string) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *client) close() { c.nc.Close() }

// appendCmd frames one command onto buf.
func appendCmd(buf []byte, args ...[]byte) []byte {
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(len(args)), 10)
	buf = append(buf, '\r', '\n')
	for _, a := range args {
		buf = append(buf, '$')
		buf = strconv.AppendInt(buf, int64(len(a)), 10)
		buf = append(buf, '\r', '\n')
		buf = append(buf, a...)
		buf = append(buf, '\r', '\n')
	}
	return buf
}

// flush writes the built requests in one Write.
func (c *client) flush() error {
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

// reply is one parsed server reply. bulk aliases the read buffer and is
// valid until the next readReply.
type reply struct {
	kind byte // '+', '-', ':', '$'
	n    int64
	bulk []byte // status/error text or bulk value; nil for a nil bulk
	null bool
}

var errBadReply = errors.New("malformed reply")

func (c *client) readReply() (reply, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, fmt.Errorf("%w: %q", errBadReply, line)
	}
	r := reply{kind: line[0]}
	body := line[1 : len(line)-2]
	switch r.kind {
	case '+', '-':
		r.bulk = body
	case ':':
		r.n, err = strconv.ParseInt(string(body), 10, 64)
	case '$':
		r.n, err = strconv.ParseInt(string(body), 10, 64)
		if err != nil {
			break
		}
		if r.n < 0 {
			r.null = true
			break
		}
		// Values here are far smaller than the 64 KiB read buffer, so
		// Peek+Discard returns the bytes without a copy.
		var b []byte
		if b, err = c.br.Peek(int(r.n) + 2); err == nil {
			r.bulk = b[:r.n]
			_, err = c.br.Discard(int(r.n) + 2)
		} else if errors.Is(err, bufio.ErrBufferFull) {
			b = make([]byte, r.n+2)
			if _, err = io.ReadFull(c.br, b); err == nil {
				r.bulk = b[:r.n]
			}
		}
	default:
		err = fmt.Errorf("%w: %q", errBadReply, line)
	}
	return r, err
}

// do sends one command and reads its one reply.
func (c *client) do(args ...[]byte) (reply, error) {
	c.out = appendCmd(c.out[:0], args...)
	if err := c.flush(); err != nil {
		return reply{}, err
	}
	return c.readReply()
}
