package server

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"unixhash/internal/db"
	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
)

// Options configures Serve.
type Options struct {
	// DB is the database the server fronts. Required. For parallel
	// write throughput this should be a db.Sharded database: the
	// server's coalesced writes apply as PutBatch calls, and N shards
	// run N of them at once.
	DB db.DB
	// Metrics, when non-nil, receives the server_* series (connection
	// and command counters). Pass the same registry the database's
	// shards aggregate into and one /metrics page carries the whole
	// stack, storage to sockets.
	Metrics *metrics.Registry
	// Oplog, when non-nil, turns on per-request phase attribution:
	// every command runs under an op ledger (parse, coalesce wait,
	// shard route, latch wait, WAL, buffer pool, reply write) recorded
	// into this recorder. A DB implementing db.OpDB (the hash shapes)
	// charges its own phases to the ledger; any other is served the
	// same way and only the server's phases are attributed. Nil keeps
	// the zero-overhead path: every command carries a nil ledger.
	Oplog *oplog.Recorder
}

// Server is a listening network front end. Close stops it gracefully:
// the listener closes, every blocked connection is nudged awake, each
// applies its in-flight work (pending coalesced writes included) and
// says goodbye, and Close returns when the last one has drained.
type Server struct {
	db  db.DB
	ops db.OpDB // db's ledger-carrying face; plainOps{db} when it has none
	ln  net.Listener
	rec *oplog.Recorder // nil: attribution off, connections hold nil ledgers

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup

	mConns      *metrics.Counter
	mActive     *metrics.Gauge
	mCmds       *metrics.Counter
	mErrors     *metrics.Counter
	mCoalesced  *metrics.Counter
	mBatchPuts  *metrics.Counter
	mTxnCommits *metrics.Counter
}

// Serve starts listening on addr ("host:port"; ":0" picks a free port,
// read it back with Addr) and serves o.DB until Close.
func Serve(addr string, o Options) (*Server, error) {
	if o.DB == nil {
		return nil, errors.New("server: Options.DB is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{db: o.DB, ln: ln, rec: o.Oplog, conns: make(map[*conn]struct{})}
	if od, ok := o.DB.(db.OpDB); ok {
		s.ops = od
	} else {
		s.ops = plainOps{o.DB}
	}
	reg := o.Metrics
	if reg == nil {
		reg = metrics.New() // private sink: the counters still work
	}
	reg.Help("server_conns_total", "Connections accepted")
	s.mConns = reg.Counter("server_conns_total")
	reg.Help("server_conns_active", "Connections currently open")
	s.mActive = reg.Gauge("server_conns_active")
	reg.Help("server_cmds_total", "Commands executed")
	s.mCmds = reg.Counter("server_cmds_total")
	reg.Help("server_errors_total", "Commands answered with -ERR")
	s.mErrors = reg.Counter("server_errors_total")
	reg.Help("server_puts_coalesced_total", "PUTs applied through a coalesced batch")
	s.mCoalesced = reg.Counter("server_puts_coalesced_total")
	reg.Help("server_batch_puts_total", "Pairs applied through explicit BATCH commands")
	s.mBatchPuts = reg.Counter("server_batch_puts_total")
	reg.Help("server_txn_commits_total", "TXN COMMIT commands that succeeded")
	s.mTxnCommits = reg.Counter("server_txn_commits_total")

	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// plainOps gives a database without ledger methods (btree, recno, a
// caller's own db.DB) the db.OpDB face by dropping the ledger, so a
// connection has one call per command whatever it fronts.
type plainOps struct{ db.DB }

func (p plainOps) GetBufOp(_ *oplog.Ledger, key, dst []byte) ([]byte, error) {
	return p.GetBuf(key, dst)
}
func (p plainOps) PutOp(_ *oplog.Ledger, key, data []byte) error     { return p.Put(key, data) }
func (p plainOps) PutBatchOp(_ *oplog.Ledger, pairs []db.Pair) error { return p.PutBatch(pairs) }
func (p plainOps) DeleteOp(_ *oplog.Ledger, key []byte) error        { return p.Delete(key) }
func (p plainOps) BeginOp(*oplog.Ledger) (db.Txn, error)             { return p.Begin() }

// Addr returns the listener's resolved address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{srv: s, nc: nc, r: newReader(nc), w: newWriter(nc)}
		if s.rec != nil {
			c.led, c.txnLed = new(oplog.Ledger), new(oplog.Ledger)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.mConns.Inc()
		s.mActive.Add(1)
		go c.serve()
	}
}

// connDone unregisters a finished connection.
func (s *Server) connDone(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.mActive.Add(-1)
	s.wg.Done()
}

// draining reports whether Close has begun; connections use it to tell
// a shutdown nudge from a real timeout.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops accepting, wakes every connection parked on a read, and
// waits for all of them to drain: a connection mid-command finishes
// it, applies any pending coalesced writes, flushes its replies, and
// exits. The database is not closed — the caller owns it and typically
// wants a final Sync after the server is quiet.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.nudge()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
