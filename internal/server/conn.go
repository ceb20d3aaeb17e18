package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/oplog"
)

// maxCoalesce caps the write-coalescing buffer: this many consecutive
// pipelined PUTs collapse into one PutBatch call, the same chunk dbcli
// load submits, so a full window is one latch epoch per shard.
const maxCoalesce = core.DefaultBatchSize

// conn serves one client connection. The loop reads pipelined
// commands, coalescing consecutive plain PUTs into a pending batch;
// the batch — and the reply buffer — flush when the pipeline window
// ends (no more request bytes in memory), when a non-PUT command
// arrives (replies must stay in request order, and a following GET
// must observe the writes), or when the batch is full.
type conn struct {
	srv *Server
	nc  net.Conn
	r   *reader
	w   *writer

	pending []db.Pair // coalesced PUTs not yet applied
	txn     db.Txn    // open transaction, or nil
	getBuf  []byte    // reused GetBuf storage

	// Op-ledger state; both ledgers are nil when srv.rec is (attribution
	// off), and every Ledger method and Recorder.Record is nil-safe, so
	// each command is written once. led is the per-command scratch ledger
	// (one command runs at a time on a connection); txnLed is pinned for
	// the life of an open transaction because BeginOp hands its address
	// to the transaction.
	led    *oplog.Ledger
	txnLed *oplog.Ledger
	pendSt int64 // start stamp of the oldest pending PUT
}

// begin opens led for one command at its start stamp st and counts the
// command's parse, which st already covers.
func (c *conn) begin(led *oplog.Ledger, cmd oplog.Cmd, key []byte, st int64) *oplog.Ledger {
	led.StartOpAt(cmd, key, st)
	led.Count(oplog.PhaseParse)
	return led
}

// end closes a command's ledger and folds it into the recorder.
func (c *conn) end(led *oplog.Ledger) {
	led.Finish()
	c.srv.rec.Record(led)
}

func (c *conn) serve() {
	defer func() {
		if c.txn != nil {
			c.txn.Rollback()
		}
		c.nc.Close()
		c.srv.connDone(c)
	}()
	for {
		if c.r.buffered() == 0 {
			// Pipeline-window boundary: everything the client has sent is
			// handled, so apply pending writes and push replies before
			// blocking on the network.
			c.flushPending()
			if c.flushReplies() != nil {
				return
			}
		}
		// The command's start stamp, one clock read: before the parse when
		// its bytes are already in memory, after the read when it blocked
		// on the network — an idle connection is not a slow request.
		var st int64
		stampFirst := c.srv.rec != nil && c.r.buffered() > 0
		if stampFirst {
			st = oplog.Clock()
		}
		args, err := c.r.ReadCommand()
		if err != nil {
			c.readFailed(err)
			return
		}
		if args == nil { // blank line between commands
			continue
		}
		if c.srv.rec != nil && !stampFirst {
			st = oplog.Clock()
		}
		c.srv.mCmds.Inc()
		if !c.dispatch(args, st) {
			c.flushPending()
			c.w.Flush()
			return
		}
	}
}

// flushReplies pushes buffered replies to the socket, attributing the
// write to a reply-phase ledger when attribution is on and the window
// actually owes bytes.
func (c *conn) flushReplies() error {
	if c.srv.rec == nil || c.w.buffered() == 0 {
		return c.w.Flush()
	}
	st := oplog.Clock()
	led := c.led
	led.StartOpAt(oplog.CmdOther, nil, st)
	err := c.w.Flush()
	led.Since(oplog.PhaseReply, st)
	c.end(led)
	return err
}

// readFailed ends the loop on a read error: shutdown drain, clean
// disconnect, or protocol violation. Pending coalesced writes are
// applied in every case — the client pipelined them before the
// connection died, and the pipelining contract (below) promises
// acceptance once read.
func (c *conn) readFailed(err error) {
	c.flushPending()
	switch {
	case c.srv.draining() && errors.Is(err, os.ErrDeadlineExceeded):
		// Graceful shutdown nudged the blocked read. In-flight work is
		// done (the read was at a window boundary); say goodbye.
		c.w.Error("server shutting down")
	case errors.Is(err, io.EOF):
		// Clean close between commands.
	default:
		c.srv.mErrors.Inc()
		c.w.Error(err.Error())
	}
	c.w.Flush()
}

// dispatch executes one command, returning false to close the
// connection. Replies are buffered, not yet flushed. st is the command's
// start stamp (0 when attribution is off).
func (c *conn) dispatch(args [][]byte, st int64) bool {
	cmd := asciiUpper(args[0])
	// Every command except a plain PUT is a coalescing barrier: the
	// pending batch must land first so replies stay ordered and reads
	// observe earlier pipelined writes. The flushed batch is its own op,
	// so this command's stamp moves past it.
	if (cmd != "PUT" || c.txn != nil) && len(c.pending) > 0 {
		c.flushPending()
		if c.led != nil {
			st = oplog.Clock()
		}
	}
	switch cmd {
	case "GET":
		if !c.arity(args, 2) {
			return true
		}
		led := c.begin(c.led, oplog.CmdGet, args[1], st)
		v, err := c.srv.ops.GetBufOp(led, args[1], c.getBuf)
		c.end(led)
		switch {
		case errors.Is(err, db.ErrNotFound):
			c.w.Nil()
		case err != nil:
			c.cmdErr(err)
		default:
			c.getBuf = v[:0]
			c.w.Bulk(v)
		}
	case "PUT":
		if !c.arity(args, 3) {
			return true
		}
		if c.txn != nil {
			if err := c.txn.Put(args[1], args[2]); err != nil {
				c.cmdErr(err)
			} else {
				c.w.Status("QUEUED")
			}
			return true
		}
		// Coalesce: park the pair, owe the +OK. The parser allocated the
		// argument slices, so they stay valid until the batch applies.
		// With attribution on, the batch ledger opens at the first park —
		// its elapsed time then brackets the coalesce wait flushPending
		// settles — and later parked PUTs count their parses on it.
		if c.led != nil {
			if len(c.pending) == 0 {
				c.begin(c.led, oplog.CmdPut, args[1], st)
				c.pendSt = st
			} else {
				c.led.Count(oplog.PhaseParse)
			}
		}
		c.pending = append(c.pending, db.Pair{Key: args[1], Data: args[2]})
		if len(c.pending) >= maxCoalesce {
			c.flushPending()
		}
	case "DEL":
		if !c.arity(args, 2) {
			return true
		}
		if c.txn != nil {
			if err := c.txn.Delete(args[1]); err != nil {
				c.cmdErr(err)
			} else {
				c.w.Status("QUEUED")
			}
			return true
		}
		led := c.begin(c.led, oplog.CmdDelete, args[1], st)
		err := c.srv.ops.DeleteOp(led, args[1])
		c.end(led)
		switch {
		case errors.Is(err, db.ErrNotFound):
			c.w.Int(0)
		case err != nil:
			c.cmdErr(err)
		default:
			c.w.Int(1)
		}
	case "BATCH":
		c.batch(args, st)
	case "TXN":
		c.txnCmd(args, st)
	case "STATS":
		c.stats(st)
	case "PING":
		c.w.Status("PONG")
	case "QUIT":
		c.w.Status("OK")
		return false
	default:
		c.srv.mErrors.Inc()
		c.w.Error(fmt.Sprintf("unknown command %q", cmd))
	}
	return true
}

// batch applies BATCH k1 v1 [k2 v2 ...]: the explicit form of what
// coalescing does implicitly — one PutBatch, one reply (:n pairs).
func (c *conn) batch(args [][]byte, st int64) {
	if len(args) < 3 || len(args)%2 == 0 {
		c.srv.mErrors.Inc()
		c.w.Error("BATCH wants KEY VALUE pairs")
		return
	}
	pairs := make([]db.Pair, 0, (len(args)-1)/2)
	for i := 1; i < len(args); i += 2 {
		pairs = append(pairs, db.Pair{Key: args[i], Data: args[i+1]})
	}
	led := c.begin(c.led, oplog.CmdBatch, pairs[0].Key, st)
	err := c.srv.ops.PutBatchOp(led, pairs)
	c.end(led)
	if err != nil {
		c.cmdErr(err)
		return
	}
	c.srv.mBatchPuts.Add(int64(len(pairs)))
	c.w.Int(int64(len(pairs)))
}

// stats answers STATS with the database's JSON statistics; with
// attribution on, the document gains an "Oplog" member carrying the
// recorder's per-command phase summary.
func (c *conn) stats(st int64) {
	led := c.begin(c.led, oplog.CmdStats, nil, st)
	defer c.end(led)
	s, err := c.srv.db.Stats()
	if err != nil {
		c.cmdErr(err)
		return
	}
	var doc any = s
	if c.srv.rec != nil {
		sum := c.srv.rec.Snapshot()
		doc = struct {
			db.Stats
			Oplog *oplog.Summary
		}{s, &sum}
	}
	j, err := json.Marshal(doc)
	if err != nil {
		c.cmdErr(err)
		return
	}
	c.w.Bulk(j)
}

// txnCmd handles TXN BEGIN|COMMIT|ROLLBACK. Between BEGIN and COMMIT,
// PUT and DEL queue into the transaction (+QUEUED) and become visible
// and durable as one unit at COMMIT; GET does not observe the
// transaction's own queued writes. On a sharded database the unit is
// per shard (see db.Sharded.Begin).
func (c *conn) txnCmd(args [][]byte, st int64) {
	if len(args) != 2 {
		c.srv.mErrors.Inc()
		c.w.Error("TXN wants BEGIN, COMMIT or ROLLBACK")
		return
	}
	switch asciiUpper(args[1]) {
	case "BEGIN":
		if c.txn != nil {
			c.srv.mErrors.Inc()
			c.w.Error("transaction already open")
			return
		}
		// The ledger is attached now (the transaction holds its address)
		// but started at COMMIT, where the phases happen.
		x, err := c.srv.ops.BeginOp(c.txnLed)
		if err != nil {
			c.cmdErr(err)
			return
		}
		c.txn = x
		c.w.Status("OK")
	case "COMMIT":
		if c.txn == nil {
			c.srv.mErrors.Inc()
			c.w.Error("no transaction")
			return
		}
		led := c.begin(c.txnLed, oplog.CmdTxn, nil, st)
		err := c.txn.Commit()
		c.end(led)
		c.txn = nil
		if err != nil {
			c.cmdErr(err)
			return
		}
		c.srv.mTxnCommits.Inc()
		c.w.Status("OK")
	case "ROLLBACK":
		if c.txn == nil {
			c.srv.mErrors.Inc()
			c.w.Error("no transaction")
			return
		}
		err := c.txn.Rollback()
		c.txn = nil
		if err != nil {
			c.cmdErr(err)
			return
		}
		c.w.Status("OK")
	default:
		c.srv.mErrors.Inc()
		c.w.Error("TXN wants BEGIN, COMMIT or ROLLBACK")
	}
}

// flushPending applies the coalesced PUTs as one PutBatch and writes
// the owed +OK replies. On failure every owed reply becomes the same
// -ERR: the batch is all-or-nothing per shard, and per-key blame is
// not available.
func (c *conn) flushPending() {
	if len(c.pending) == 0 {
		return
	}
	n := len(c.pending)
	// One ledger stands for the whole coalesced batch: it opened at the
	// first park (the dispatch PUT case), so the wait the PUTs spent
	// parked is the coalesce phase (counted once per pair) and the db
	// phases below are the batch's own.
	if c.led != nil {
		c.led.AddN(oplog.PhaseCoalesce, oplog.Clock()-c.pendSt, n)
	}
	err := c.srv.ops.PutBatchOp(c.led, c.pending)
	c.end(c.led)
	c.pending = c.pending[:0]
	if err != nil {
		c.srv.mErrors.Inc()
		for i := 0; i < n; i++ {
			c.w.Error(err.Error())
		}
		return
	}
	if n > 1 {
		c.srv.mCoalesced.Add(int64(n))
	}
	for i := 0; i < n; i++ {
		c.w.Status("OK")
	}
}

// cmdErr reports a command-level failure: the connection survives, the
// client sees -ERR.
func (c *conn) cmdErr(err error) {
	c.srv.mErrors.Inc()
	c.w.Error(err.Error())
}

// arity checks the argument count, replying -ERR on mismatch.
func (c *conn) arity(args [][]byte, n int) bool {
	if len(args) != n {
		c.srv.mErrors.Inc()
		c.w.Error(fmt.Sprintf("%s wants %d arguments", asciiUpper(args[0]), n-1))
		return false
	}
	return true
}

// nudge unblocks a read parked on the network so the connection can
// notice a shutdown; the past deadline makes the read fail immediately
// with os.ErrDeadlineExceeded.
func (c *conn) nudge() { c.nc.SetReadDeadline(time.Unix(1, 0)) }

// asciiUpper returns the verb upper-cased without allocating for the
// already-upper-case common case.
func asciiUpper(b []byte) string {
	if !bytes.ContainsFunc(b, func(r rune) bool { return r >= 'a' && r <= 'z' }) {
		return string(b)
	}
	u := make([]byte, len(b))
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		u[i] = c
	}
	return string(u)
}
