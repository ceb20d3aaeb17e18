package oplog

import (
	"strings"
	"sync"
	"testing"
	"time"

	"unixhash/internal/metrics"
)

// TestNilLedgerZeroAlloc is the disabled-path contract: every recording
// method on a nil ledger (and a nil recorder) must be a branch, not an
// allocation or a clock read.
func TestNilLedgerZeroAlloc(t *testing.T) {
	var led *Ledger
	var rec *Recorder
	key := []byte("key")
	allocs := testing.AllocsPerRun(1000, func() {
		led.StartOp(CmdGet, key)
		led.Add(PhaseLatchWait, 10)
		led.AddN(PhaseCoalesce, 10, 4)
		led.Since(PhaseFilter, 0)
		led.SetShard(3)
		led.SetTraceSpan(1, 2)
		led.Finish()
		rec.Record(led)
	})
	if allocs != 0 {
		t.Fatalf("nil ledger path allocated %.1f times per op, want 0", allocs)
	}
}

// TestLedgerAccounting checks phases accumulate and the end-to-end
// elapsed brackets the phase total.
func TestLedgerAccounting(t *testing.T) {
	var led Ledger
	led.StartOp(CmdPut, []byte("a-key-longer-than-the-retained-prefix-window"))
	st := Clock()
	time.Sleep(2 * time.Millisecond)
	led.Since(PhaseBufFault, st)
	led.Add(PhaseLatchWait, 1000)
	led.AddN(PhaseCoalesce, 5000, 3)
	led.SetShard(2)
	led.Finish()

	if got := led.PhaseCount(PhaseBufFault); got != 1 {
		t.Fatalf("fault count = %d", got)
	}
	if got := led.PhaseNS(PhaseBufFault); got < int64(2*time.Millisecond) {
		t.Fatalf("fault ns = %d, want >= 2ms", got)
	}
	if got := led.PhaseCount(PhaseCoalesce); got != 3 {
		t.Fatalf("coalesce count = %d", got)
	}
	if led.Elapsed() < led.PhaseNS(PhaseBufFault) {
		t.Fatalf("elapsed %d < fault phase %d", led.Elapsed(), led.PhaseNS(PhaseBufFault))
	}
	if want := led.PhaseNS(PhaseBufFault) + 1000 + 5000; led.PhaseTotal() != want {
		t.Fatalf("phase total %d, want %d", led.PhaseTotal(), want)
	}
	if got := len(led.Key()); got != keyPrefixLen {
		t.Fatalf("key prefix len = %d, want %d", got, keyPrefixLen)
	}
	if led.Shard() != 2 {
		t.Fatalf("shard = %d", led.Shard())
	}
}

// TestRecorderHistograms checks recorded ledgers land in the registry
// series and in the snapshot summary.
func TestRecorderHistograms(t *testing.T) {
	reg := metrics.New()
	rec := NewRecorder(reg, 2)
	for i := 0; i < 10; i++ {
		var led Ledger
		led.StartOp(CmdGet, []byte("k"))
		led.Add(PhaseLatchWait, int64(50*time.Microsecond))
		led.Add(PhaseBufHit, int64(10*time.Microsecond))
		led.SetShard(i % 2)
		led.Finish()
		rec.Record(&led)
	}
	// The registry aggregates the per-shard histograms under one name;
	// the shard-local counts must sum to the traffic.
	var opCount, latchCount int64
	for _, sr := range rec.shards {
		opCount += sr.op[CmdGet].Count()
		latchCount += sr.phase[CmdGet][PhaseLatchWait].Count()
	}
	if opCount != 10 || latchCount != 10 {
		t.Fatalf("op count = %d, latch count = %d, want 10 each", opCount, latchCount)
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "oplog_op_get_seconds_count 10") {
		t.Fatalf("registry dump missing aggregated oplog series:\n%.800s", prom.String())
	}
	s := rec.Snapshot()
	if len(s.Commands) != 1 || s.Commands[0].Cmd != "get" || s.Commands[0].Count != 10 {
		t.Fatalf("snapshot commands = %+v", s.Commands)
	}
	if s.Commands[0].P50us <= 0 {
		t.Fatalf("p50 = %v, want > 0", s.Commands[0].P50us)
	}
	if len(s.Shards) != 2 {
		t.Fatalf("snapshot shards = %d, want 2 (both saw traffic)", len(s.Shards))
	}
}

// TestRecorderDropsAreMetrics: a ledger naming a shard the recorder has
// no slot for is folded into the unrouted slot and counted — in the
// summary as before, and as a registry series an alert can watch.
func TestRecorderDropsAreMetrics(t *testing.T) {
	reg := metrics.New()
	rec := NewRecorder(reg, 2)
	var led Ledger
	led.StartOp(CmdGet, []byte("k"))
	led.SetShard(7)
	led.Finish()
	rec.Record(&led)
	if d := rec.Snapshot().Dropped; d != 1 {
		t.Fatalf("summary dropped = %d, want 1", d)
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE oplog_ledgers_dropped_total counter\noplog_ledgers_dropped_total 1\n"; !strings.Contains(prom.String(), want) ||
		!strings.Contains(prom.String(), "# HELP oplog_ledgers_dropped_total Ledgers recorded") {
		t.Fatalf("registry dump lacks %q with its HELP line", want)
	}
}

// TestRecorderExemplars checks the slowest ledger of a window wins the
// exemplar slot and survives a window rotation into the ring.
func TestRecorderExemplars(t *testing.T) {
	rec := NewRecorder(nil, 1)
	record := func(key string, elapsed time.Duration) {
		var led Ledger
		led.StartOp(CmdGet, []byte(key))
		led.start = Clock() - int64(elapsed) // backdate to control Elapsed
		led.SetShard(0)
		led.SetTraceSpan(7, 9)
		led.Finish()
		rec.Record(&led)
	}
	record("fast", 10*time.Microsecond)
	record("slow", 10*time.Millisecond)
	record("mid", 1*time.Millisecond)

	exs := rec.Exemplars()
	if len(exs) != 1 {
		t.Fatalf("exemplars = %d, want 1 (one command, one window)", len(exs))
	}
	if exs[0].Key != "slow" {
		t.Fatalf("exemplar key = %q, want the slowest", exs[0].Key)
	}
	if exs[0].TraceSeq0 != 7 || exs[0].TraceSeq1 != 9 {
		t.Fatalf("trace span = %d..%d", exs[0].TraceSeq0, exs[0].TraceSeq1)
	}

	// Force a rotation by recording a ledger whose end is a window later.
	var led Ledger
	led.StartOp(CmdPut, []byte("next-window"))
	led.SetShard(0)
	led.Finish()
	led.end = led.start + int64(2*exemplarWindow)
	rec.Record(&led)

	exs = rec.Exemplars()
	// "slow" rotated into the ring; "next-window" is the open window's max.
	var keys []string
	for _, e := range exs {
		keys = append(keys, e.Key)
	}
	if len(exs) != 2 || exs[0].Key != "next-window" || exs[1].Key != "slow" {
		t.Fatalf("exemplars after rotation = %v", keys)
	}
}

// TestPercentileEstimate sanity-checks the bucket interpolation: a
// cluster of identical observations must report a percentile within
// its power-of-two bucket.
func TestPercentileEstimate(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 100; i++ {
		h.Observe(300 * time.Microsecond) // bucket (256us, 512us]
	}
	p50 := pctUS(h.Snapshot(), 0.50)
	if p50 <= 256 || p50 > 512 {
		t.Fatalf("p50 = %.1fus, want within (256, 512]", p50)
	}
}

// TestLedgerTearingRace is the -race stress for the advertised
// concurrency contract: many goroutines charging phases to one ledger
// (the sharded fan-out shape) while another records finished ledgers
// into a shared recorder and readers snapshot it.
func TestLedgerTearingRace(t *testing.T) {
	rec := NewRecorder(metrics.New(), 4)
	const writers = 8
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot + exemplar readers.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rec.Snapshot()
					rec.Exemplars()
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte("race-key")
			for i := 0; i < 400; i++ {
				var led Ledger
				led.StartOp(CmdBatch, key)
				var inner sync.WaitGroup
				// Fan out: concurrent helpers charge the same ledger.
				for g := 0; g < 4; g++ {
					inner.Add(1)
					go func(g int) {
						defer inner.Done()
						led.Add(PhaseLatchWait, int64(g+1))
						led.Add(PhaseBufHit, 100)
						led.SetShard(g)
						led.SetTraceSpan(uint64(g), uint64(g+2))
					}(g)
				}
				inner.Wait()
				led.Finish()
				rec.Record(&led)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := rec.Snapshot()
	if len(s.Commands) == 0 || s.Commands[0].Count != writers*400 {
		t.Fatalf("snapshot = %+v, want %d batch ops", s.Commands, writers*400)
	}
}
