// Package trace is the hashing package's structured event log: a
// fixed-size, lock-free ring buffer of typed, timestamped events emitted
// by the layers that do interesting work — bucket splits, overflow page
// allocation, big-pair chain writes, sync phase transitions, recovery
// steps, batch phases, buffer-pool evictions and slow device operations.
// Where the metrics registry (internal/metrics) answers "how many", the
// trace ring answers "what happened, in what order, and how long did each
// step take" — the paper's controlled/uncontrolled split decisions and
// two-phase sync are *events with structure and duration*, not counters.
//
// The design rules:
//
//   - Emitting an event is wait-free and allocation-free: one atomic
//     fetch-add claims a sequence number, and the slot's words are
//     published with a seqlock protocol (compare-and-swap claim, payload
//     stores, commit store), so writers never block each other or
//     readers; a writer that loses its slot to one a full lap away
//     drops its event and counts it.
//   - An event is recorded once. Each component that emits (a table, a
//     log) owns one Tracer, never nil, which counts every event it
//     records, exactly, per type and kind (see Count): the component's
//     metrics are read-time views over those counts, so a counter and a
//     ring event can never disagree about one fact. The shared *Ring is
//     optional: without one (nil, tracing off) Emit is the count's one
//     atomic add — no clock read, no slot, no allocation — and Next
//     and Range on the nil ring report nothing.
//   - Readers never block writers: Snapshot validates each slot's commit
//     word before and after copying it, discarding slots that a wrapping
//     writer overtook mid-copy. Sequence numbers in a snapshot are
//     strictly increasing and never torn.
//
// The ring keeps no record of requests. A request is described once, by
// its op ledger (internal/oplog): the ledger notes the ring position
// before and after the call (Ring.Next), and the telemetry surface
// inlines Ring.Range over that span into the request's exemplar — the
// event trail of one slow Get, Put, batch or commit.
package trace

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// Type identifies what an event describes. The zero value is reserved so
// an uninitialized slot can never masquerade as a real event.
type Type uint8

// The event taxonomy. Arguments are typed per event; see typeInfo for the
// meaning of each argument slot (also rendered as JSON field names by the
// telemetry server).
const (
	EvNone Type = iota

	// Linear-hash growth: one split step (expand) redistributing the
	// entries of old bucket into old and new.
	EvSplitBegin // old bucket, new bucket, max bucket, uncontrolled(0/1)
	EvSplitEnd   // old bucket, new bucket, entries moved, chain pages reclaimed

	// Buddy-in-waiting overflow allocation, in splitpoint addressing.
	EvOvflAlloc // split point, page number, oaddr
	EvOvflReuse // split point, page number, oaddr
	EvOvflFree  // split point, page number, oaddr

	// One big key/data pair written to its dedicated chain.
	EvBigPairWrite // chain pages, key len, data len, start oaddr

	// The ordered two-phase sync protocol.
	EvSyncBegin // sync epoch being opened
	EvSyncPhase // phase code (SyncPhase*), sync epoch
	EvSyncEnd   // sync epoch now durable, noop(0/1)

	// Crash recovery milestones.
	EvRecoveryStep // step code (RecoveryStep*), detail a, detail b

	// Batched write pipeline phases.
	EvBatchBegin // pairs submitted
	EvBatchPhase // phase code (BatchPhase*), detail
	EvBatchEnd   // pairs applied, splits performed

	// Buffer-pool eviction (page pushed out to make room).
	EvBufEvict // addr N, overflow(0/1), dirty(0/1)

	// A device operation (pagefile) that took at least SlowIOThreshold.
	EvSlowIO // io kind (IORead/IOWrite/IOSync), page number, bytes

	// A transaction's frames landed in the write-ahead log (not yet
	// durable until the covering wal-fsync).
	EvWalAppend // commit lsn, ops, bytes

	// A log fsync made every appended byte below `bytes` durable;
	// followers that joined the group fsync never emit this.
	EvWalFsync // last lsn, bytes

	// A checkpoint folded the applied LSN into the table header and
	// reset the log.
	EvCheckpoint // lsn, epoch, log_bytes

	// A Get consulted the primary page's tag filter and proved its key
	// absent without reading any chain page.
	EvFilterSkip // bucket, chain_len
)

// Phase codes carried in EvSyncPhase's first argument.
const (
	SyncPhaseData   = 1 // dirty pages + bitmaps flushed and fsynced
	SyncPhaseHeader = 2 // clean header stamped and fsynced
)

// Step codes carried in EvRecoveryStep's first argument.
const (
	RecoveryStepWalk    = 1 // dry-run walk over every bucket chain
	RecoveryStepGate    = 2 // nkeys+fingerprint acceptance gate passed
	RecoveryStepRepairs = 3 // planned repairs written (arg b: repair count)
	RecoveryStepBitmaps = 4 // overflow-use bitmaps rebuilt (arg b: bitmaps)
	RecoveryStepDone    = 5 // file stamped clean
	// Tag filters the certifying walk rebuilt from the pairs it verified,
	// reported after the bitmaps although the repair loop wrote them (arg
	// a: primaries whose filter region changed).
	RecoveryStepFilters = 6
)

// Phase codes carried in EvBatchPhase's first argument.
const (
	BatchPhasePresize    = 1 // empty table jumped to final geometry (detail: buckets)
	BatchPhaseDistribute = 2 // bucket-grouped distribution pass done (detail: buckets touched)
	BatchPhaseSplits     = 3 // deferred split pass done (detail: splits)
)

// IO kinds carried in EvSlowIO's first argument.
const (
	IORead  = 1
	IOWrite = 2
	IOSync  = 3
)

// typeInfo names each event type and its argument slots for rendering.
var typeInfo = [...]struct {
	name string
	args [4]string
}{
	EvNone:         {name: "none"},
	EvSplitBegin:   {name: "split-begin", args: [4]string{"old_bucket", "new_bucket", "max_bucket", "uncontrolled"}},
	EvSplitEnd:     {name: "split-end", args: [4]string{"old_bucket", "new_bucket", "entries_moved", "pages_reclaimed"}},
	EvOvflAlloc:    {name: "ovfl-alloc", args: [4]string{"split_point", "page_number", "oaddr"}},
	EvOvflReuse:    {name: "ovfl-reuse", args: [4]string{"split_point", "page_number", "oaddr"}},
	EvOvflFree:     {name: "ovfl-free", args: [4]string{"split_point", "page_number", "oaddr"}},
	EvBigPairWrite: {name: "bigpair-write", args: [4]string{"chain_pages", "key_len", "data_len", "start_oaddr"}},
	EvSyncBegin:    {name: "sync-begin", args: [4]string{"epoch"}},
	EvSyncPhase:    {name: "sync-phase", args: [4]string{"phase", "epoch"}},
	EvSyncEnd:      {name: "sync-end", args: [4]string{"epoch", "noop"}},
	EvRecoveryStep: {name: "recovery-step", args: [4]string{"step", "a", "b"}},
	EvBatchBegin:   {name: "batch-begin", args: [4]string{"pairs"}},
	EvBatchPhase:   {name: "batch-phase", args: [4]string{"phase", "detail"}},
	EvBatchEnd:     {name: "batch-end", args: [4]string{"pairs", "splits"}},
	EvBufEvict:     {name: "buf-evict", args: [4]string{"addr", "overflow", "dirty"}},
	EvSlowIO:       {name: "slow-io", args: [4]string{"kind", "page", "bytes"}},
	EvWalAppend:    {name: "wal-append", args: [4]string{"lsn", "ops", "bytes"}},
	EvWalFsync:     {name: "wal-fsync", args: [4]string{"lsn", "bytes"}},
	EvCheckpoint:   {name: "checkpoint", args: [4]string{"lsn", "epoch", "log_bytes"}},
	EvFilterSkip:   {name: "filter-skip", args: [4]string{"bucket", "chain_len"}},
}

// String returns the type's wire name (used by /debug/events filters).
func (t Type) String() string {
	if int(t) < len(typeInfo) && typeInfo[t].name != "" {
		return typeInfo[t].name
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ParseType resolves a wire name back to a Type (EvNone if unknown).
func ParseType(s string) Type {
	for i := range typeInfo {
		if typeInfo[i].name == s {
			return Type(i)
		}
	}
	return EvNone
}

// Event is one decoded ring entry.
type Event struct {
	Seq  uint64 // strictly increasing emission order
	Time int64  // unix nanoseconds at emission
	Type Type
	Dur  time.Duration // optional duration (0 for point events)
	Args [4]uint64
}

// String renders the event for logs and CLIs.
func (e Event) String() string {
	info := typeInfo[EvNone]
	if int(e.Type) < len(typeInfo) {
		info = typeInfo[e.Type]
	}
	s := fmt.Sprintf("#%d %s", e.Seq, e.Type)
	for i, name := range info.args {
		if name == "" {
			break
		}
		s += fmt.Sprintf(" %s=%d", name, e.Args[i])
	}
	if e.Dur > 0 {
		s += fmt.Sprintf(" dur=%v", e.Dur)
	}
	return s
}

// MarshalJSON renders the event with named arguments, the shape
// /debug/events serves. Allocation here is fine: JSON rendering is a
// scrape-path operation, never a hot-path one.
func (e Event) MarshalJSON() ([]byte, error) {
	info := typeInfo[EvNone]
	if int(e.Type) < len(typeInfo) {
		info = typeInfo[e.Type]
	}
	args := make(map[string]uint64, 4)
	for i, name := range info.args {
		if name == "" {
			break
		}
		args[name] = e.Args[i]
	}
	return json.Marshal(struct {
		Seq   uint64            `json:"seq"`
		Time  int64             `json:"time_unix_nano"`
		Type  string            `json:"type"`
		DurNS int64             `json:"dur_ns,omitempty"`
		Args  map[string]uint64 `json:"args,omitempty"`
	}{e.Seq, e.Time, e.Type.String(), int64(e.Dur), args})
}

// slot is one ring cell: a commit word plus seven payload words, exactly
// one 64-byte cache line. A slot holding sequence s publishes commit
// value s+1; while a writer owns it, commit carries the busy bit. All
// words are atomics, so readers racing a wrapping writer read stale or
// busy values — never torn bytes — and the commit check rejects them.
type slot struct {
	commit atomic.Uint64
	w      [7]atomic.Uint64 // time, type, dur, args[0..3]
}

const busyBit = uint64(1) << 63

// Ring is the fixed-size, lock-free event buffer. The capacity is a
// power of two; new events overwrite the oldest, except that a writer
// racing the one a full lap away drops its event (counted by Dropped).
type Ring struct {
	slots   []slot
	mask    uint64
	next    atomic.Uint64
	dropped atomic.Uint64
}

// New creates a ring holding at least capacity events, rounded up to a
// power of two, minimum 64 (0 picks 16384 — one megabyte of slots). It is
// the one ring every component of a table or database emits into.
func New(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 16384
	}
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n) - 1}
}

// Cap reports the ring capacity in events.
func (r *Ring) Cap() int { return len(r.slots) }

// Next reports the sequence number the next emitted event will receive
// (0 on a nil ring). A caller brackets an operation with two reads to
// learn which ring events were emitted while it ran.
func (r *Ring) Next() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Dropped reports how many events were given a sequence number but not
// stored, because the writer found its slot still owned by the writer one
// lap behind or already holding a newer event (see emit).
func (r *Ring) Dropped() uint64 { return r.dropped.Load() }

// emit claims the next sequence number and publishes one event, or drops
// it; the second result says which.
func (r *Ring) emit(typ Type, now int64, dur int64, a0, a1, a2, a3 uint64) (uint64, bool) {
	s := r.next.Add(1) - 1
	sl := &r.slots[s&r.mask]
	// Claim with one CAS from a published, older commit value, so exactly
	// one writer owns the payload words until its final store. A writer
	// preempted mid-publish can be lapped by the one Cap() sequence
	// numbers later; a blind store here would let the two interleave
	// payload words, or let the older publish its stale commit last.
	// Losing the slot drops the event instead of waiting: emit stays
	// wait-free. Readers that loaded the previous commit value re-check
	// it after copying and reject the slot once the claim lands.
	c := sl.commit.Load()
	if c&busyBit != 0 || c > s || !sl.commit.CompareAndSwap(c, s|busyBit) {
		r.dropped.Add(1)
		return s, false
	}
	sl.w[0].Store(uint64(now))
	sl.w[1].Store(uint64(typ))
	sl.w[2].Store(uint64(dur))
	sl.w[3].Store(a0)
	sl.w[4].Store(a1)
	sl.w[5].Store(a2)
	sl.w[6].Store(a3)
	sl.commit.Store(s + 1)
	return s, true
}

// read copies the event with sequence s if it is still intact.
func (r *Ring) read(s uint64) (Event, bool) {
	sl := &r.slots[s&r.mask]
	if sl.commit.Load() != s+1 {
		return Event{}, false // busy, overwritten, or not yet published
	}
	e := Event{
		Seq:  s,
		Time: int64(sl.w[0].Load()),
		Type: Type(sl.w[1].Load()),
		Dur:  time.Duration(sl.w[2].Load()),
		Args: [4]uint64{sl.w[3].Load(), sl.w[4].Load(), sl.w[5].Load(), sl.w[6].Load()},
	}
	if sl.commit.Load() != s+1 {
		return Event{}, false // a wrapping writer overtook the copy
	}
	return e, true
}

// Range copies the intact events with sequence numbers in [from, to),
// oldest first. Sequence numbers in the result are strictly increasing;
// events a wrapping writer has reclaimed are silently absent. A nil ring
// has none.
func (r *Ring) Range(from, to uint64) []Event {
	if r == nil {
		return nil
	}
	if to > r.next.Load() {
		to = r.next.Load()
	}
	if n := uint64(len(r.slots)); to > n && from < to-n {
		from = to - n
	}
	if from >= to {
		return nil
	}
	out := make([]Event, 0, to-from)
	for s := from; s < to; s++ {
		if e, ok := r.read(s); ok {
			out = append(out, e)
		}
	}
	return out
}

// Snapshot copies the newest intact events, up to max (0 or negative
// means the whole ring), oldest first.
func (r *Ring) Snapshot(max int) []Event {
	head := r.next.Load()
	n := uint64(len(r.slots))
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	from := uint64(0)
	if head > n {
		from = head - n
	}
	return r.Range(from, head)
}

// Events returns the newest intact events, oldest first, up to max (0:
// the whole ring). With types given, only those event types are kept.
func (r *Ring) Events(max int, types ...Type) []Event {
	evs := r.Snapshot(0)
	if len(types) > 0 {
		kept := evs[:0]
		for _, e := range evs {
			for _, want := range types {
				if e.Type == want {
					kept = append(kept, e)
					break
				}
			}
		}
		evs = kept
	}
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	return evs
}

// SlowIOThreshold is the device-operation latency at and above which
// SlowIO emits an event.
const SlowIOThreshold = time.Millisecond

// kinds bounds the kinds an event type is counted by (see kindOf).
const kinds = 8

// Tracer is one component's emitter: the one call that records a fact.
// It counts every event, exactly, by type and kind, and publishes it to
// the ring when one is attached. A component's metrics read the counts
// (Count); a shared registry sums them across components at read time.
// All methods are safe for concurrent use.
type Tracer struct {
	ring *Ring // nil: tracing off
	n    [len(typeInfo)][kinds]atomic.Int64
}

// NewTracer creates a component's emitter over r, the ring it shares
// with the other components (nil: count only).
func NewTracer(r *Ring) *Tracer { return &Tracer{ring: r} }

// Ring reports the ring the tracer publishes to (nil when tracing is
// off).
func (t *Tracer) Ring() *Ring { return t.ring }

// Next reports the ring's next sequence number (0 when tracing is off).
func (t *Tracer) Next() uint64 { return t.ring.Next() }

// kindOf is the code that sorts a type's events into separately counted
// kinds, for the types a metric counts by kind: a split's uncontrolled
// flag, a recovery step, a batch phase. Every other type has the one
// kind 0. Codes are below kinds.
func kindOf(typ Type, a0, a3 uint64) uint64 {
	switch typ {
	case EvSplitBegin:
		return a3
	case EvRecoveryStep, EvBatchPhase:
		return a0
	}
	return 0
}

// Count reports how many events of typ and kind were recorded (see
// kindOf; kind 0 for the types without kinds).
func (t *Tracer) Count(typ Type, kind uint64) int64 { return t.n[typ][kind&(kinds-1)].Load() }

// Emit records one point event.
func (t *Tracer) Emit(typ Type, a0, a1, a2, a3 uint64) { t.EmitDur(typ, 0, a0, a1, a2, a3) }

// EmitDur records one event carrying a duration.
func (t *Tracer) EmitDur(typ Type, d time.Duration, a0, a1, a2, a3 uint64) {
	t.n[typ][kindOf(typ, a0, a3)&(kinds-1)].Add(1)
	if t.ring != nil {
		t.ring.emit(typ, time.Now().UnixNano(), int64(d), a0, a1, a2, a3)
	}
}

// SlowIO records one device operation's latency; operations at or above
// SlowIOThreshold are an EvSlowIO event. Called by the page stores,
// whose tracer is nil until a table attaches one.
func (t *Tracer) SlowIO(kind int, pageno uint32, bytes int, d time.Duration) {
	if t != nil && d >= SlowIOThreshold {
		t.EmitDur(EvSlowIO, d, uint64(kind), uint64(pageno), uint64(bytes), 0)
	}
}
