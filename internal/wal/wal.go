// Package wal implements the append-only redo log behind the hash
// package's atomic transactions.
//
// The log makes a single durable Put cost one sequential append plus one
// log fsync instead of the table's full two-phase Sync (FlushAll of every
// dirty page, a data fsync, a header rewrite and a second fsync). Only
// committed transactions are ever appended: the caller buffers intent
// records and hands the whole batch to Append, which writes the op frames
// and the commit frame in one contiguous WriteAt. A power cut during the
// append therefore always leaves a cleanly torn tail — there is no window
// where a commit frame lands without its ops.
//
// Frame format (all little-endian):
//
//	u32 length   // of the payload that follows
//	u32 crc32    // IEEE, over the payload
//	payload:
//	  u64 lsn    // strictly increasing across the whole log
//	  u8  type   // recPut | recDelete | recCommit
//	  body       // recPut: u32 klen | key | data
//	             // recDelete: key
//	             // recCommit: u32 nops (frames since the previous commit)
//
// The file starts with a fixed header (magic, version, the checkpoint LSN
// the log was last reset at, the table's sync epoch at that reset, CRC32)
// rewritten only by Reset. Recovery scans forward from the header and
// stops at the first short, CRC-damaged, non-monotonic or malformed
// frame: everything before the last valid commit frame is replayable,
// everything after is discarded (a torn tail, unless it is all zeros).
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/trace"
)

const (
	logMagic   = 0x1a6c09 // "log" in spirit; distinct from the table magic
	logVersion = 1

	// HeaderSize is the fixed log file header: magic, version,
	// checkpoint LSN, table sync epoch, CRC32.
	HeaderSize = 4 + 4 + 8 + 8 + 4

	frameHdrSize = 4 + 4 // length, crc32
	recFixedSize = 8 + 1 // lsn, type

	// maxRecLen bounds a single payload; anything larger in a length
	// field is garbage, not a record.
	maxRecLen = 1 << 28
)

// Record types.
const (
	recPut    = 1
	recDelete = 2
	recCommit = 3
)

var le = binary.LittleEndian

var (
	// ErrCorrupt reports a log file that is structurally valid enough to
	// read but inconsistent with itself or with the table — unlike a torn
	// tail, this is never the result of a clean power cut.
	ErrCorrupt = errors.New("wal: log corrupt")
	// ErrBroken reports a log whose device failed in a way that could
	// not be repaired in place; further appends are refused so that no
	// commit is acknowledged behind an unreadable gap.
	ErrBroken = errors.New("wal: log device failed; commits refused")
)

// CostModel is an empty placeholder: the log counts its appends and
// fsyncs and charges nothing for them. The type survives only because
// benchmark/ calls Open(…, CostModel{}, …), and goes with Open's
// parameter when that directory next changes (ROADMAP item 1(d)).
type CostModel struct{}

// Stats counts log activity.
type Stats struct {
	Appends       int64
	AppendedBytes int64
	Fsyncs        int64
	FsyncJoins    int64
	Resets        int64
	Errors        int64
}

// Op is one logical mutation inside a transaction.
type Op struct {
	Delete bool
	Key    []byte
	Data   []byte // nil for deletes
}

// Txn is a committed transaction recovered from the log.
type Txn struct {
	LSN uint64 // the commit frame's LSN
	Ops []Op
}

// ScanResult describes what Open found in the device.
type ScanResult struct {
	// HeaderOK is false when the file header is missing, short or
	// CRC-damaged. A torn header can only be the result of a power cut
	// during Reset — which runs only after the table header was durably
	// stamped with the same checkpoint — so the caller may treat the log
	// as empty.
	HeaderOK bool
	// CheckpointLSN and Epoch are the values stamped at the last Reset
	// (zero when HeaderOK is false).
	CheckpointLSN uint64
	Epoch         uint64
	// Txns lists every committed transaction in LSN order.
	Txns []Txn
	// LastLSN is the commit LSN of the last committed transaction, or
	// zero if none.
	LastLSN uint64
	// ValidEnd is the byte offset just past the last committed frame;
	// the next append lands here. Bytes beyond it are a torn tail,
	// uncommitted ops or zeroed free space.
	ValidEnd int64
	// Torn is true when the device held a non-zero byte past ValidEnd.
	Torn bool
}

// Log is an append-only redo log over a Device. All methods are safe for
// concurrent use; Append serializes writers while SyncTo runs a
// leader/follower group-fsync protocol, so concurrent committers share
// one device fsync.
type Log struct {
	dev Device
	tr  *trace.Tracer // counts appends, fsyncs and checkpoints; publishes them to the ring

	mu            sync.Mutex // serializes Append/Reset and guards the fields below
	size          int64      // valid end of the log; next append offset
	nextLSN       uint64
	checkpointLSN uint64
	epoch         uint64
	broken        error
	buf           []byte // frame build scratch, reused across appends

	lastLSN atomic.Uint64 // commit LSN of the last append (or scan)

	// sc implements the offset-based group fsync: a leader syncs the
	// device and publishes the synced size; followers whose target
	// offset is already covered return without touching the device. A
	// follower that slept through a failed round reports the leader's
	// error instead of dog-piling onto a failing device.
	sc struct {
		mu      sync.Mutex
		cond    *sync.Cond
		syncing bool
		synced  int64
		round   uint64
		lastErr error
		gen     uint64 // Resets (under mu and sc.mu); a leader from before one publishes nothing
	}

	stMu sync.Mutex
	st   Stats
}

// Open scans the device and returns a Log positioned to append after the
// last committed transaction. Torn tails are not erased — the size is
// simply rewound so the next append overwrites them. ring is the trace
// ring the log's events join (nil: tracing off).
func Open(dev Device, _ CostModel, ring *trace.Ring) (*Log, ScanResult, error) {
	l := &Log{dev: dev, tr: trace.NewTracer(ring)}
	l.sc.cond = sync.NewCond(&l.sc.mu)
	sr, err := l.scan()
	if err != nil {
		return nil, sr, err
	}
	l.size = sr.ValidEnd
	l.checkpointLSN = sr.CheckpointLSN
	l.epoch = sr.Epoch
	l.lastLSN.Store(sr.LastLSN)
	l.sc.synced = sr.ValidEnd // everything already on the device predates us
	return l, sr, nil
}

// scan walks the device from the header forward, populating a ScanResult
// and leaving l.nextLSN one past the highest LSN it saw (valid or not, so
// appends after a torn tail stay monotonic).
func (l *Log) scan() (ScanResult, error) {
	var sr ScanResult
	l.nextLSN = 1
	size, err := l.dev.Size()
	if err != nil {
		return sr, err
	}
	if size < HeaderSize {
		// Missing or short header: an empty device, or a power cut
		// during Reset's header write. Either way there is nothing
		// replayable here.
		sr.Torn = size > 0
		return sr, nil
	}
	hb := make([]byte, HeaderSize)
	if _, err := readFull(l.dev, hb, 0); err != nil {
		return sr, err
	}
	if le.Uint32(hb[HeaderSize-4:]) != crc32.ChecksumIEEE(hb[:HeaderSize-4]) ||
		le.Uint32(hb[0:]) != logMagic {
		// Damaged or foreign header: same treatment as a short one.
		sr.Torn = true
		return sr, nil
	}
	if v := le.Uint32(hb[4:]); v != logVersion {
		return sr, fmt.Errorf("%w: log version %d, want %d", ErrCorrupt, v, logVersion)
	}
	sr.HeaderOK = true
	sr.CheckpointLSN = le.Uint64(hb[8:])
	sr.Epoch = le.Uint64(hb[16:])
	sr.ValidEnd = HeaderSize
	lastLSN := sr.CheckpointLSN
	if lastLSN >= l.nextLSN {
		l.nextLSN = lastLSN + 1
	}

	var pending []Op
	var fh [frameHdrSize]byte
	payload := make([]byte, 0, 256)
	off := int64(HeaderSize)
scan:
	for off+frameHdrSize <= size {
		if _, err := readFull(l.dev, fh[:], off); err != nil {
			return sr, err
		}
		ln := le.Uint32(fh[0:])
		if ln < recFixedSize || ln > maxRecLen || off+frameHdrSize+int64(ln) > size {
			break
		}
		if cap(payload) < int(ln) {
			payload = make([]byte, ln)
		}
		payload = payload[:ln]
		if _, err := readFull(l.dev, payload, off+frameHdrSize); err != nil {
			return sr, err
		}
		if crc32.ChecksumIEEE(payload) != le.Uint32(fh[4:]) {
			break
		}
		lsn := le.Uint64(payload[0:])
		if lsn <= lastLSN {
			// Non-monotonic LSN: leftovers of an older log generation
			// beyond a shrunken valid region. Not replayable.
			break
		}
		body := payload[recFixedSize:]
		switch payload[8] {
		case recPut:
			if len(body) < 4 {
				break scan
			}
			klen := le.Uint32(body)
			if klen == 0 || int64(4+klen) > int64(len(body)) {
				break scan
			}
			pending = append(pending, Op{
				Key:  cloneBytes(body[4 : 4+klen]),
				Data: cloneBytes(body[4+klen:]),
			})
		case recDelete:
			if len(body) == 0 {
				break scan
			}
			pending = append(pending, Op{Delete: true, Key: cloneBytes(body)})
		case recCommit:
			if len(body) != 4 || int(le.Uint32(body)) != len(pending) {
				break scan
			}
			sr.Txns = append(sr.Txns, Txn{LSN: lsn, Ops: pending})
			pending = nil
			sr.LastLSN = lsn
			sr.ValidEnd = off + frameHdrSize + int64(ln)
		default:
			break scan
		}
		lastLSN = lsn
		if lsn >= l.nextLSN {
			l.nextLSN = lsn + 1
		}
		off += frameHdrSize + int64(ln)
	}
	sr.Torn, err = nonZero(l.dev, sr.ValidEnd, size)
	return sr, err
}

// Append writes one transaction — every op frame plus the commit frame —
// in a single contiguous device write at the current tail, and returns
// the commit LSN and the end offset to pass to SyncTo. The transaction is
// not durable until SyncTo (or Sync) covers that offset. On a write
// error the tail is truncated back so the failed bytes cannot entomb a
// later commit behind a garbage gap; if even that fails the log is
// poisoned and all further appends return ErrBroken.
func (l *Log) Append(ops []Op) (commitLSN uint64, end int64, err error) {
	if len(ops) == 0 {
		return 0, 0, errors.New("wal: empty transaction")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, 0, l.broken
	}
	buf := l.buf[:0]
	for i := range ops {
		if op := &ops[i]; op.Delete {
			buf = appendFrame(buf, l.nextLSN, recDelete, -1, op.Key, nil)
		} else {
			buf = appendFrame(buf, l.nextLSN, recPut, len(op.Key), op.Key, op.Data)
		}
		l.nextLSN++
	}
	commitLSN = l.nextLSN
	l.nextLSN++
	buf = appendFrame(buf, commitLSN, recCommit, len(ops), nil, nil)
	l.buf = buf[:0]

	n, werr := l.dev.WriteAt(buf, l.size)
	if werr == nil && n != len(buf) {
		werr = io.ErrShortWrite
	}
	if werr != nil {
		l.countError()
		// A partial frame at the tail is harmless to recovery (the CRC
		// stops the scan there) but a *later* successful append would
		// start past it and strand its commit behind the garbage. Cut
		// the tail back; if the device cannot even do that, refuse
		// further commits.
		if terr := l.dev.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("%w: append failed (%v) and truncate failed (%v)", ErrBroken, werr, terr)
		}
		return 0, 0, werr
	}
	l.size += int64(len(buf))
	l.lastLSN.Store(commitLSN)
	l.count(func(s *Stats) { s.AppendedBytes += int64(len(buf)) })
	l.tr.Emit(trace.EvWalAppend, commitLSN, uint64(len(ops)), uint64(len(buf)), 0)
	return commitLSN, l.size, nil
}

// SyncTo makes every byte below end durable, sharing one device fsync
// among concurrent committers: the first caller in becomes the leader and
// fsyncs for everyone who arrived while it ran; followers covered by the
// published synced offset return without an fsync of their own. A
// follower that waited out a round whose leader failed gets the leader's
// error — retrying as a fresh leader against a device that just refused
// an fsync would only pile errors onto a poisoned store.
func (l *Log) SyncTo(end int64) error { return l.SyncToOp(nil, end) }

// SyncToOp is SyncTo with op-ledger attribution: a caller whose offset
// is covered by another committer's fsync (before or after parking on
// the group-commit round) charges the follower-join phase; the caller
// that performs the device fsync charges the leader phase, including
// any time it first spent parked. A nil ledger is exactly SyncTo.
func (l *Log) SyncToOp(led *oplog.Ledger, end int64) error {
	var st int64
	if led != nil {
		st = oplog.Clock()
	}
	l.sc.mu.Lock()
	for {
		if l.sc.synced >= end {
			l.sc.mu.Unlock()
			l.stMu.Lock()
			l.st.FsyncJoins++
			l.stMu.Unlock()
			if led != nil {
				led.Since(oplog.PhaseWALFsyncJoin, st)
			}
			return nil
		}
		if !l.sc.syncing {
			break
		}
		round := l.sc.round
		l.sc.cond.Wait()
		if l.sc.round != round && l.sc.synced < end && l.sc.lastErr != nil {
			err := l.sc.lastErr
			l.sc.mu.Unlock()
			if led != nil {
				led.Since(oplog.PhaseWALFsyncJoin, st)
			}
			return err
		}
	}
	l.sc.syncing = true
	l.sc.mu.Unlock()

	// Snapshot the tail under mu: everything appended so far rides this
	// fsync, including commits that landed after our own.
	l.mu.Lock()
	covered, gen := l.size, l.sc.gen
	l.mu.Unlock()
	err := l.dev.Sync()
	if err != nil {
		l.countError()
	} else {
		l.tr.Emit(trace.EvWalFsync, l.lastLSN.Load(), uint64(covered), 0, 0)
	}

	l.sc.mu.Lock()
	l.sc.syncing = false
	l.sc.round++
	l.sc.lastErr = err
	if err == nil && gen == l.sc.gen && covered > l.sc.synced {
		l.sc.synced = covered
	}
	l.sc.cond.Broadcast()
	l.sc.mu.Unlock()
	if led != nil {
		led.Since(oplog.PhaseWALFsyncLead, st)
	}
	return err
}

// Sync makes every appended byte durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	end := l.size
	l.mu.Unlock()
	if end == 0 {
		return nil
	}
	return l.SyncTo(end)
}

// Reset truncates the log after a checkpoint: the caller has durably
// flushed every applied transaction into the table pages and stamped
// checkpointLSN (and its sync epoch) in the table header, so the records
// are dead weight. The new header is written and fsynced before Reset
// returns.
func (l *Log) Reset(checkpointLSN, epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if err := l.dev.Truncate(0); err != nil {
		l.countError()
		return err
	}
	hb := make([]byte, HeaderSize)
	le.PutUint32(hb[0:], logMagic)
	le.PutUint32(hb[4:], logVersion)
	le.PutUint64(hb[8:], checkpointLSN)
	le.PutUint64(hb[16:], epoch)
	le.PutUint32(hb[HeaderSize-4:], crc32.ChecksumIEEE(hb[:HeaderSize-4]))
	if _, err := l.dev.WriteAt(hb, 0); err != nil {
		l.countError()
		return err
	}
	if err := l.dev.Sync(); err != nil {
		l.countError()
		return err
	}
	l.size = HeaderSize
	l.checkpointLSN = checkpointLSN
	l.epoch = epoch
	if l.nextLSN <= checkpointLSN {
		l.nextLSN = checkpointLSN + 1
	}
	l.lastLSN.Store(0)
	l.sc.mu.Lock()
	l.sc.synced = HeaderSize
	l.sc.gen++
	l.sc.mu.Unlock()
	l.count(func(s *Stats) { s.Resets++ })
	return nil
}

// LastLSN returns the commit LSN of the most recent append, or zero when
// the log holds no commits (e.g. right after a Reset).
func (l *Log) LastLSN() uint64 { return l.lastLSN.Load() }

// EnsureLSN bumps the LSN allocator so the next record's LSN is strictly
// greater than min. Used at open to keep LSNs monotonic across log resets
// recorded only in the table header.
func (l *Log) EnsureLSN(min uint64) {
	l.mu.Lock()
	if l.nextLSN <= min {
		l.nextLSN = min + 1
	}
	l.mu.Unlock()
}

// Size returns the current valid end of the log in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats returns a snapshot of the log's counters. Appends and fsyncs are
// the counts of their events.
func (l *Log) Stats() Stats {
	l.stMu.Lock()
	st := l.st
	l.stMu.Unlock()
	st.Appends, st.Fsyncs = l.tr.Count(trace.EvWalAppend, 0), l.tr.Count(trace.EvWalFsync, 0)
	return st
}

// RegisterMetrics exposes the log counters on reg under wal_-prefixed
// names.
func (l *Log) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	get := func(f func(*Stats) int64) func() int64 {
		return func() int64 {
			l.stMu.Lock()
			defer l.stMu.Unlock()
			return f(&l.st)
		}
	}
	reg.CounterFunc("wal_appends_total", func() int64 { return l.tr.Count(trace.EvWalAppend, 0) })
	reg.CounterFunc("wal_appended_bytes_total", get(func(s *Stats) int64 { return s.AppendedBytes }))
	reg.CounterFunc("wal_fsyncs_total", func() int64 { return l.tr.Count(trace.EvWalFsync, 0) })
	reg.CounterFunc("wal_fsync_joins_total", get(func(s *Stats) int64 { return s.FsyncJoins }))
	reg.CounterFunc("wal_resets_total", get(func(s *Stats) int64 { return s.Resets }))
	reg.CounterFunc("wal_errors_total", get(func(s *Stats) int64 { return s.Errors }))
}

// Close closes the underlying device.
func (l *Log) Close() error { return l.dev.Close() }

func (l *Log) count(f func(*Stats)) {
	l.stMu.Lock()
	f(&l.st)
	l.stMu.Unlock()
}

func (l *Log) countError() {
	l.stMu.Lock()
	l.st.Errors++
	l.stMu.Unlock()
}

// appendFrame marshals one frame straight into buf: length, CRC, then
// the payload — lsn, type and a body of u32 n (omitted when n < 0), a
// and b. The CRC covers the payload.
func appendFrame(buf []byte, lsn uint64, typ byte, n int, a, b []byte) []byte {
	start := len(buf)
	buf = le.AppendUint64(buf, 0) // length, crc32: set below
	buf = append(le.AppendUint64(buf, lsn), typ)
	if n >= 0 {
		buf = le.AppendUint32(buf, uint32(n))
	}
	buf = append(append(buf, a...), b...)
	payload := buf[start+frameHdrSize:]
	le.PutUint32(buf[start:], uint32(len(payload)))
	le.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// nonZero reports whether any device byte in [off, size) is not zero.
func nonZero(dev Device, off, size int64) (bool, error) {
	p := make([]byte, min(size-off, growChunk))
	for ; off < size; off += growChunk {
		p = p[:min(size-off, growChunk)]
		if _, err := readFull(dev, p, off); err != nil || !bytes.Equal(p, zeroChunk[:len(p)]) {
			return err == nil, err
		}
	}
	return false, nil
}

func readFull(dev Device, p []byte, off int64) (int, error) {
	n, err := dev.ReadAt(p, off)
	if n == len(p) {
		return n, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
