package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// FuzzReadCommand feeds arbitrary request streams to the wire parser.
// It must never panic or exceed its framing limits; a command it accepts
// must survive re-encoding in array framing unchanged; and — as the
// connection loop does — the reader is abandoned at the first error, so
// nothing is ever parsed from a stream whose position is untrusted.
func FuzzReadCommand(f *testing.F) {
	for _, seed := range []string{
		"put k v\r\n",     // TestServerInlineCommands
		"GET k\r\n",       //
		"*notanumber\r\n", // TestServerProtocolErrors
		"*3\r\n$3\r\nPUT\r\n$1\r\nk\r\n$1\r\nv\r\n", // array framing
		"*2\r\n$3\r\nGET\r\n$-1\r\n",                // negative bulk length
		"*1\r\n$4\r\nPI\r\nNG\r\n\r\nPING\n",        // CRLF inside a bulk, blank line, bare LF
		"*2\r\n$3\r\nGET\r\n$5\r\nab",               // truncated mid-bulk
		"*0\r\n",
		"  GET   spaced   \r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newReader(bytes.NewReader(data))
		for {
			args, err := r.ReadCommand()
			if err != nil {
				if !errors.Is(err, errProtocol) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unclassified parse error: %v", err)
				}
				return
			}
			if len(args) == 0 { // blank line between commands
				continue
			}
			if len(args) > maxArgs {
				t.Fatalf("accepted %d arguments, limit %d", len(args), maxArgs)
			}
			var enc bytes.Buffer
			fmt.Fprintf(&enc, "*%d\r\n", len(args))
			for _, a := range args {
				if len(a) > maxBulk {
					t.Fatalf("accepted a %d-byte argument, limit %d", len(a), maxBulk)
				}
				fmt.Fprintf(&enc, "$%d\r\n%s\r\n", len(a), a)
			}
			again, err := newReader(&enc).ReadCommand()
			if err != nil {
				t.Fatalf("re-encoded %q does not parse: %v", args, err)
			}
			if len(again) != len(args) {
				t.Fatalf("re-parse of %q yields %d arguments", args, len(again))
			}
			for i := range args {
				if !bytes.Equal(args[i], again[i]) {
					t.Fatalf("argument %d changed across re-encoding: %q -> %q", i, args[i], again[i])
				}
			}
		}
	})
}
