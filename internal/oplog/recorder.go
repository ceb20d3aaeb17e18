package oplog

import (
	"sync"
	"sync/atomic"
	"time"

	"unixhash/internal/metrics"
)

// exemplarWindow is how long one "slowest ledger per command" slot
// accumulates before it is pushed into the exemplar ring and reset:
// long enough that a burst does not wash the ring, short enough that
// the ring still covers the recent past.
const exemplarWindow = time.Second

// exemplarRingCap bounds the retained exemplar history.
const exemplarRingCap = 64

// cmdPhase is the full latency breakdown one shard keeps: a histogram
// per command × phase plus an end-to-end histogram per command. All of
// them are registered into the shared registry (merged across shards
// by name), so /metrics carries the aggregate while Snapshot exposes
// the per-shard split.
type shardRec struct {
	phase [NumCmds][NumPhases]metrics.Histogram
	op    [NumCmds]metrics.Histogram
}

// Recorder folds finished ledgers into histograms and exemplars. One
// Recorder spans the process: shard -1 (requests that never routed,
// e.g. STATS) and one slot per database shard.
type Recorder struct {
	shards []*shardRec // index 0 = unrouted, 1..N = shard 0..N-1

	mu       sync.Mutex
	winStart atomic.Int64          // Clock() at the current window's start
	cur      [NumCmds]Exemplar     // slowest ledger per command this window
	slowest  [NumCmds]atomic.Int64 // lock-free admission threshold
	ring     [exemplarRingCap]Exemplar
	ringLen  int
	ringPos  int
	dropped  atomic.Int64 // ledgers recorded with an out-of-range shard
}

// Exemplar is one retained ledger: the slowest complete request of its
// command in one window, with enough context to join it back to the
// trace ring.
type Exemplar struct {
	Ledger Ledger
	Wall   time.Time // wall-clock stamp at record time
}

// NewRecorder creates a Recorder for nshards database shards and
// registers its histograms into reg (which may be nil for a
// registry-less recorder, e.g. in tests). Series:
//
//	oplog_op_<cmd>_seconds          end-to-end latency per command
//	oplog_phase_<phase>_seconds     per-phase latency, all commands
//	oplog_ledgers_dropped_total     ledgers naming a shard out of range
func NewRecorder(reg *metrics.Registry, nshards int) *Recorder {
	if nshards < 0 {
		nshards = 0
	}
	r := &Recorder{shards: make([]*shardRec, nshards+1)}
	r.winStart.Store(Clock())
	if reg != nil {
		reg.CounterFunc("oplog_ledgers_dropped_total", r.dropped.Load)
		reg.Help("oplog_ledgers_dropped_total", "Ledgers recorded with an out-of-range shard (folded into the unrouted slot).")
	}
	for i := range r.shards {
		sr := &shardRec{}
		r.shards[i] = sr
		if reg == nil {
			continue
		}
		for c := Cmd(0); c < NumCmds; c++ {
			name := "oplog_op_" + cmdNames[c] + "_seconds"
			reg.AddHistogram(name, &sr.op[c])
			reg.Help(name, "End-to-end latency of "+cmdNames[c]+" requests through the op ledger.")
			for p := 0; p < NumPhases; p++ {
				pname := "oplog_phase_" + phaseNames[p] + "_seconds"
				reg.AddHistogram(pname, &sr.phase[c][p])
				reg.Help(pname, phaseHelp[p])
			}
		}
	}
	return r
}

// NShards reports the number of database-shard slots (excluding the
// unrouted slot).
func (r *Recorder) NShards() int {
	if r == nil {
		return 0
	}
	return len(r.shards) - 1
}

// Record folds a finished ledger into the recorder. Safe on a nil
// recorder and hot-path cheap: per non-empty phase one histogram
// observe, plus a lock-free exemplar admission check that takes the
// mutex only for a new per-window maximum or a window rotation.
func (r *Recorder) Record(led *Ledger) {
	if r == nil || led == nil {
		return
	}
	slot := led.Shard() + 1
	if slot < 0 || slot >= len(r.shards) {
		r.dropped.Add(1)
		slot = 0
	}
	sr := r.shards[slot]
	c := led.cmd
	if c >= NumCmds {
		c = CmdOther
	}
	el := led.Elapsed()
	sr.op[c].Observe(time.Duration(el))
	for p := 0; p < NumPhases; p++ {
		if n := atomic.LoadUint32(&led.count[p]); n > 0 {
			sr.phase[c][p].Observe(time.Duration(atomic.LoadInt64(&led.ns[p])))
		}
	}

	// Exemplar admission: only a new per-window slowest (or a due
	// rotation) takes the lock.
	now := led.end
	if el <= r.slowest[c].Load() && now-r.winStart.Load() < int64(exemplarWindow) {
		return
	}
	r.mu.Lock()
	if now-r.winStart.Load() >= int64(exemplarWindow) {
		r.rotateLocked(now)
	}
	if el > r.cur[c].Ledger.Elapsed() || r.cur[c].Wall.IsZero() {
		r.cur[c] = Exemplar{Ledger: *led, Wall: time.Now()}
		r.slowest[c].Store(el)
	}
	r.mu.Unlock()
}

// rotateLocked pushes the current window's per-command maxima into the
// ring and opens a new window. Caller holds r.mu.
func (r *Recorder) rotateLocked(now int64) {
	for c := range r.cur {
		if r.cur[c].Wall.IsZero() {
			continue
		}
		r.ring[r.ringPos] = r.cur[c]
		r.ringPos = (r.ringPos + 1) % exemplarRingCap
		if r.ringLen < exemplarRingCap {
			r.ringLen++
		}
		r.cur[c] = Exemplar{}
		r.slowest[c].Store(0)
	}
	r.winStart.Store(now)
}

// PhaseStat is one command × phase summary in a snapshot.
type PhaseStat struct {
	Phase string  `json:"phase"`
	Count int64   `json:"count"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
	Mean  float64 `json:"mean_us"`
	Total float64 `json:"total_ms"`
}

// CmdStat is one command's summary: end-to-end latency plus its phase
// breakdown, largest phase first.
type CmdStat struct {
	Cmd    string      `json:"cmd"`
	Count  int64       `json:"count"`
	P50us  float64     `json:"p50_us"`
	P99us  float64     `json:"p99_us"`
	Mean   float64     `json:"mean_us"`
	Phases []PhaseStat `json:"phases,omitempty"`
}

// ShardStat is one shard's command summaries. Shard -1 collects
// requests that never routed to a database shard.
type ShardStat struct {
	Shard int       `json:"shard"`
	Cmds  []CmdStat `json:"cmds,omitempty"`
}

// Summary is the /debug/oplog document.
type Summary struct {
	Commands []CmdStat   `json:"commands"` // aggregated across shards
	Shards   []ShardStat `json:"shards,omitempty"`
	Dropped  int64       `json:"dropped,omitempty"`
}

// Snapshot summarizes the recorder: per-command end-to-end and phase
// percentiles aggregated across shards, plus the per-shard split for
// shards that saw traffic.
func (r *Recorder) Snapshot() Summary {
	if r == nil {
		return Summary{}
	}
	var s Summary
	// Aggregate across shards by summing snapshots.
	for c := Cmd(0); c < NumCmds; c++ {
		var op metrics.HistogramSnapshot
		var phases [NumPhases]metrics.HistogramSnapshot
		for _, sr := range r.shards {
			op = sumSnap(op, sr.op[c].Snapshot())
			for p := 0; p < NumPhases; p++ {
				phases[p] = sumSnap(phases[p], sr.phase[c][p].Snapshot())
			}
		}
		if cs, ok := cmdStat(c, op, phases[:]); ok {
			s.Commands = append(s.Commands, cs)
		}
	}
	for i, sr := range r.shards {
		var ss ShardStat
		ss.Shard = i - 1
		for c := Cmd(0); c < NumCmds; c++ {
			var phases [NumPhases]metrics.HistogramSnapshot
			for p := 0; p < NumPhases; p++ {
				phases[p] = sr.phase[c][p].Snapshot()
			}
			if cs, ok := cmdStat(c, sr.op[c].Snapshot(), phases[:]); ok {
				ss.Cmds = append(ss.Cmds, cs)
			}
		}
		if len(ss.Cmds) > 0 {
			s.Shards = append(s.Shards, ss)
		}
	}
	s.Dropped = r.dropped.Load()
	return s
}

func cmdStat(c Cmd, op metrics.HistogramSnapshot, phases []metrics.HistogramSnapshot) (CmdStat, bool) {
	if op.Count == 0 {
		return CmdStat{}, false
	}
	cs := CmdStat{
		Cmd:   cmdNames[c],
		Count: op.Count,
		P50us: pctUS(op, 0.50),
		P99us: pctUS(op, 0.99),
		Mean:  float64(op.Mean()) / 1e3,
	}
	for p := range phases {
		ps := phases[p]
		if ps.Count == 0 {
			continue
		}
		cs.Phases = append(cs.Phases, PhaseStat{
			Phase: phaseNames[p],
			Count: ps.Count,
			P50us: pctUS(ps, 0.50),
			P99us: pctUS(ps, 0.99),
			Mean:  float64(ps.Mean()) / 1e3,
			Total: float64(ps.SumNanos) / 1e6,
		})
	}
	return cs, true
}

// sumSnap merges two histogram snapshots bucket-wise.
func sumSnap(a, b metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	if b.Count == 0 {
		return a
	}
	if a.Count == 0 {
		return b
	}
	a.Count += b.Count
	a.SumNanos += b.SumNanos
	merged := map[time.Duration]int64{}
	for _, bc := range a.Buckets {
		merged[bc.Bound] += bc.Count
	}
	for _, bc := range b.Buckets {
		merged[bc.Bound] += bc.Count
	}
	out := a.Buckets[:0:0]
	for i := 0; ; i++ {
		bound := metrics.BucketBound(i)
		if n := merged[bound]; n > 0 {
			out = append(out, metrics.BucketCount{Bound: bound, Count: n})
		}
		if bound < 0 {
			break
		}
	}
	a.Buckets = out
	return a
}

// pctUS estimates percentile q (0..1) from a snapshot's power-of-two
// buckets, in microseconds: linear interpolation within the winning
// bucket (whose lower bound is half its upper — the snapshot omits
// empty buckets, so the bound must be derived, not carried).
func pctUS(s metrics.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := q * float64(s.Count)
	cum := int64(0)
	lastFinite := time.Duration(0)
	for _, bc := range s.Buckets {
		hi := bc.Bound
		if hi < 0 { // +Inf bucket: report the largest finite bound seen
			return float64(lastFinite) / 1e3
		}
		lo := time.Duration(0)
		if hi > time.Microsecond {
			lo = hi / 2
		}
		if float64(cum+bc.Count) >= target {
			frac := (target - float64(cum)) / float64(bc.Count)
			return (float64(lo) + frac*float64(hi-lo)) / 1e3
		}
		cum += bc.Count
		lastFinite = hi
	}
	return float64(lastFinite) / 1e3
}

// ExemplarView is the JSON shape of one exemplar: the retained ledger
// unpacked for human consumption.
type ExemplarView struct {
	Cmd       string      `json:"cmd"`
	Key       string      `json:"key,omitempty"`
	Shard     int         `json:"shard"`
	Wall      time.Time   `json:"wall"`
	ElapsedUS float64     `json:"elapsed_us"`
	PhaseUS   float64     `json:"phase_sum_us"`
	Phases    []PhaseStat `json:"phases,omitempty"`
	TraceSeq0 uint64      `json:"trace_seq0"`
	TraceSeq1 uint64      `json:"trace_seq1"`
}

// Exemplars returns the retained exemplars, newest first, including
// the still-open window's current maxima.
func (r *Recorder) Exemplars() []ExemplarView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	exs := make([]Exemplar, 0, r.ringLen+int(NumCmds))
	for c := range r.cur {
		if !r.cur[c].Wall.IsZero() {
			exs = append(exs, r.cur[c])
		}
	}
	for i := 0; i < r.ringLen; i++ {
		exs = append(exs, r.ring[(r.ringPos-1-i+exemplarRingCap)%exemplarRingCap])
	}
	r.mu.Unlock()

	out := make([]ExemplarView, 0, len(exs))
	for i := range exs {
		out = append(out, viewOf(&exs[i]))
	}
	return out
}

func viewOf(e *Exemplar) ExemplarView {
	l := &e.Ledger
	v := ExemplarView{
		Cmd:       CmdName(l.cmd),
		Key:       string(l.Key()),
		Shard:     l.Shard(),
		Wall:      e.Wall,
		ElapsedUS: float64(l.Elapsed()) / 1e3,
		PhaseUS:   float64(l.PhaseTotal()) / 1e3,
	}
	v.TraceSeq0, v.TraceSeq1 = l.TraceSpan()
	for p := 0; p < NumPhases; p++ {
		if n := l.PhaseCount(p); n > 0 {
			v.Phases = append(v.Phases, PhaseStat{
				Phase: phaseNames[p],
				Count: int64(n),
				Total: float64(l.PhaseNS(p)) / 1e6,
				Mean:  float64(l.PhaseNS(p)) / float64(n) / 1e3,
			})
		}
	}
	return v
}
