// Package oplog is the per-request op ledger: allocation-free phase
// attribution for one command as it crosses the stack — server decode,
// write coalescing, shard routing, bucket latching, split assists, WAL
// marshalling and group commit, buffer-pool traffic, filter consults
// and the reply flush. The paper evaluates its package by attributing
// cost to concrete mechanisms (overflow chains, splits, page faults);
// the ledger does the same for a live request, so a slow op names the
// layer that ate the time instead of vanishing into a global histogram.
//
// A Ledger is a small fixed-size struct owned by whoever starts the
// request (a server connection). It is threaded down the layers as a
// pointer, and a nil ledger means attribution is off: every recording
// method is nil-receiver-safe, so an unenabled path pays one
// predictable branch and zero clock reads — the same contract the
// trace package establishes with its nil-tracer checks. There is one
// way down: inside a package a function takes the ledger and nil means
// off; an exported plain form (Table.Put beside Table.PutOp) exists
// only where an external caller has no ledger to pass. Phase
// counters are updated with atomic adds because one ledger can be
// visible to several goroutines at once (a PutBatch that spans shards
// fans out, a group-commit follower parks while the leader syncs).
//
// A live ledger reads the clock only around what can wait: a contended
// latch, a page fault, a split, the log, the coalescing window and the
// reply flush are timed phases. Parsing, shard routing,
// filter consults and buffer hits cost less than the clock reads that
// would bracket them, so they are counted but not timed, and Finish
// charges everything untimed to one derived phase, on_cpu = elapsed −
// Σ timed. A warm Get reads the clock twice (start and Finish), a
// faulting one four times, and a finished ledger's phases sum to its
// elapsed time by construction.
//
// Finished ledgers are folded into a Recorder: per-phase latency
// histograms that merge into the shared metrics registry (the
// oplog_phase_* / oplog_op_* series), per-command × per-shard
// breakdowns for the /debug/oplog endpoint, and a ring of exemplars —
// the slowest complete ledger per command per window, carrying the
// trace-ring sequence span of the op. The exemplar is the system's one
// slow-request record: /debug/oplog/exemplars inlines the ring events
// of that span (db.ServeTelemetry does the join; this package does not
// import trace).
package oplog

import (
	"sync/atomic"
	"time"
)

// Phase indices. A phase is one named place time goes; the taxonomy is
// deliberately flat and small so a ledger stays a few cache lines.
const (
	// PhaseParse counts server command decodes (counted, not timed).
	PhaseParse = iota
	// PhaseCoalesce is the time a staged PUT spent parked in the
	// connection's write-coalescing buffer before its batch flushed.
	PhaseCoalesce
	// PhaseRoute counts shard selections in the sharded db front end
	// (counted, not timed).
	PhaseRoute
	// PhaseLatchWait is a contended bucket-latch acquisition: a stripe
	// whose try-lock failed on the read or write path, including a
	// transaction's ascending latch sweep at commit and a wait on a
	// split holding the stripe. An uncontended latch charges nothing.
	PhaseLatchWait
	// PhaseSplitAssist is the bucket splits a write ran itself, after it
	// unlatched, because its insert tripped the split policy.
	PhaseSplitAssist
	// PhaseWALMarshal is transaction frame encoding plus the log
	// append write.
	PhaseWALMarshal
	// PhaseWALFsyncLead is a WAL group-commit fsync performed by this
	// request as the leader.
	PhaseWALFsyncLead
	// PhaseWALFsyncJoin is the follower side: parked waiting for a
	// leader's fsync to cover this request's commit offset.
	PhaseWALFsyncJoin
	// PhaseBufHit counts pages served from the buffer pool (counted,
	// not timed).
	PhaseBufHit
	// PhaseBufFault is buffer-pool time for pages faulted from the
	// store (allocation, eviction and the read itself).
	PhaseBufFault
	// PhaseFilter counts per-bucket tag-filter consults on the read
	// path (counted, not timed).
	PhaseFilter
	// PhaseReply is the pipeline-window flush back to the client.
	PhaseReply
	// PhaseOnCPU is derived, never charged: elapsed minus every timed
	// phase, set by Finish — parsing, routing, filter consults, buffer
	// hits, page search and reply serialization.
	PhaseOnCPU

	NumPhases
)

// countOnly marks the phases a ledger counts but never times: each
// costs less than the two clock reads that would bracket it, and its
// time lands in on_cpu.
var countOnly = [NumPhases]bool{PhaseParse: true, PhaseRoute: true, PhaseBufHit: true, PhaseFilter: true}

// phaseNames index the metric / JSON names for each phase.
var phaseNames = [NumPhases]string{
	"parse", "coalesce_wait", "shard_route", "latch_wait", "split_assist",
	"wal_marshal", "wal_fsync_lead", "wal_fsync_join",
	"buffer_hit", "buffer_fault", "filter", "reply_write", "on_cpu",
}

// phaseHelp is the registry HELP line per phase.
var phaseHelp = [NumPhases]string{
	"Command decode: counted per op, not timed (its time is in on_cpu), so this histogram stays empty.",
	"Time a staged PUT waited in the connection's coalescing buffer.",
	"Shard selection: counted per op, not timed (its time is in on_cpu), so this histogram stays empty.",
	"Contended bucket-latch (stripe lock) wait, a wait on a split included; an uncontended latch charges nothing.",
	"Bucket splits this write ran after it unlatched, because its insert tripped the split policy.",
	"WAL transaction frame marshal and log append write.",
	"WAL group-commit fsync performed as leader.",
	"WAL group-commit wait as a follower joining a leader's fsync.",
	"Buffer-pool hit: counted per op, not timed (its time is in on_cpu), so this histogram stays empty.",
	"Buffer-pool time for pages faulted from the store.",
	"Tag filter consult: counted per op, not timed (its time is in on_cpu), so this histogram stays empty.",
	"Pipeline-window reply flush.",
	"Elapsed time outside every timed phase: parse, routing, filter, buffer hits, page search, reply serialization.",
}

// PhaseName returns the metric/JSON name of phase p.
func PhaseName(p int) string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Cmd classifies the request the ledger describes.
type Cmd uint8

const (
	CmdGet Cmd = iota
	CmdPut
	CmdDelete
	CmdBatch
	CmdTxn
	CmdStats
	CmdOther // window flushes, PING, and anything unclassified

	NumCmds
)

var cmdNames = [NumCmds]string{"get", "put", "delete", "batch", "txn", "stats", "other"}

// CmdName returns the metric/JSON name of command c.
func CmdName(c Cmd) string {
	if c >= NumCmds {
		return "other"
	}
	return cmdNames[c]
}

// clockBase anchors the package clock; Clock values are monotonic
// nanoseconds since process start (time.Since reads the monotonic
// clock and allocates nothing).
var clockBase = time.Now()

// Clock reads the monotonic clock. Callers stamp phase starts with it
// and settle durations with Ledger.Add; a disabled path never calls it.
func Clock() int64 { return int64(time.Since(clockBase)) }

// keyPrefixLen bounds the key bytes an exemplar retains.
const keyPrefixLen = 24

// Ledger accumulates one request's phase timings. The struct is fixed
// size and pointer-free so a copy (into an exemplar) is a memmove, and
// all mutation is by atomic add so concurrent helpers (sharded fan-out
// goroutines) can charge phases to the same ledger without tearing.
type Ledger struct {
	ns    [NumPhases]int64  // accumulated nanoseconds per phase
	count [NumPhases]uint32 // events per phase
	start int64             // Clock() at StartOp
	end   int64             // Clock() at Finish
	seq0  uint64            // trace-ring sequence span covering the op
	seq1  uint64
	shard int32 // -1 until routed
	cmd   Cmd
	klen  uint8
	key   [keyPrefixLen]byte // prefix of the request key, for exemplars
}

// StartOp resets the ledger for a new request starting now. Safe on a
// nil receiver.
func (l *Ledger) StartOp(cmd Cmd, key []byte) {
	if l == nil {
		return
	}
	l.StartOpAt(cmd, key, Clock())
}

// StartOpAt is StartOp with a start stamp the caller already read (a
// server connection stamps a command before parsing it), so the parse
// is inside the op without a second clock read. Safe on a nil receiver.
func (l *Ledger) StartOpAt(cmd Cmd, key []byte, start int64) {
	if l == nil {
		return
	}
	*l = Ledger{cmd: cmd, shard: -1, start: start}
	n := copy(l.key[:], key)
	l.klen = uint8(n)
}

// Count charges one event, and no time, to a count-only phase. Safe on
// a nil receiver.
func (l *Ledger) Count(p int) {
	if l == nil {
		return
	}
	atomic.AddUint32(&l.count[p], 1)
}

// Add charges d nanoseconds (one event) to timed phase p. Safe on a nil
// receiver; negative durations (clock retreat) are dropped.
func (l *Ledger) Add(p int, d int64) {
	if l == nil || d < 0 {
		return
	}
	atomic.AddInt64(&l.ns[p], d)
	atomic.AddUint32(&l.count[p], 1)
}

// AddN charges d nanoseconds covering n events to phase p (a coalesced
// batch settles one wait over its members). Safe on a nil receiver.
func (l *Ledger) AddN(p int, d int64, n int) {
	if l == nil || d < 0 || n <= 0 {
		return
	}
	atomic.AddInt64(&l.ns[p], d)
	atomic.AddUint32(&l.count[p], uint32(n))
}

// Since charges Clock()-st to phase p. Safe on a nil receiver.
func (l *Ledger) Since(p int, st int64) {
	if l == nil {
		return
	}
	l.Add(p, Clock()-st)
}

// SetShard records which shard served the request. Safe on a nil
// receiver.
func (l *Ledger) SetShard(s int) {
	if l == nil {
		return
	}
	atomic.StoreInt32(&l.shard, int32(s))
}

// SetTraceSpan records the trace-ring sequence window [seq0, seq1)
// covering the op, linking an exemplar to its trace events. Safe on a
// nil receiver; an empty window (no events, or no tracer) records
// nothing. The stores are atomic because a sharded batch's sub-batches
// each note their own window on the one ledger concurrently; the
// fan-out's owner then sets the enclosing window after the join.
func (l *Ledger) SetTraceSpan(seq0, seq1 uint64) {
	if l == nil || seq0 >= seq1 {
		return
	}
	atomic.StoreUint64(&l.seq0, seq0)
	atomic.StoreUint64(&l.seq1, seq1)
}

// Finish stamps the end of the request and settles on_cpu: elapsed
// minus the timed phases, so the phases sum to elapsed. Phases charged
// concurrently (a cross-shard batch's fan-out) can overlap and exceed
// elapsed; on_cpu is then zero. Safe on a nil receiver.
func (l *Ledger) Finish() {
	if l == nil {
		return
	}
	end := Clock()
	atomic.StoreInt64(&l.end, end)
	cpu := end - l.start
	for p := 0; p < PhaseOnCPU; p++ {
		cpu -= atomic.LoadInt64(&l.ns[p])
	}
	atomic.StoreInt64(&l.ns[PhaseOnCPU], max(cpu, 0))
	atomic.StoreUint32(&l.count[PhaseOnCPU], 1)
}

// Elapsed is the end-to-end duration of a finished ledger.
func (l *Ledger) Elapsed() int64 {
	if l == nil || l.end == 0 {
		return 0
	}
	return l.end - l.start
}

// PhaseNS returns the nanoseconds charged to phase p.
func (l *Ledger) PhaseNS(p int) int64 { return atomic.LoadInt64(&l.ns[p]) }

// PhaseCount returns the events charged to phase p.
func (l *Ledger) PhaseCount(p int) uint32 { return atomic.LoadUint32(&l.count[p]) }

// PhaseTotal sums the nanoseconds charged across all phases, on_cpu
// included: equal to Elapsed for a finished ledger whose timed phases
// did not overlap.
func (l *Ledger) PhaseTotal() int64 {
	var t int64
	for p := 0; p < NumPhases; p++ {
		t += atomic.LoadInt64(&l.ns[p])
	}
	return t
}

// Key returns the retained key prefix.
func (l *Ledger) Key() []byte { return l.key[:l.klen] }

// Shard returns the recorded shard, or -1 if the request never routed.
func (l *Ledger) Shard() int { return int(atomic.LoadInt32(&l.shard)) }

// Cmd returns the command classification.
func (l *Ledger) Command() Cmd { return l.cmd }

// TraceSpan returns the recorded trace-ring sequence window.
func (l *Ledger) TraceSpan() (uint64, uint64) {
	return atomic.LoadUint64(&l.seq0), atomic.LoadUint64(&l.seq1)
}
