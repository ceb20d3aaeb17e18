package oplog

import (
	"strings"
	"sync"
	"testing"
	"time"

	"unixhash/internal/metrics"
	"unixhash/internal/trace"
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
		rec.Start(led, CmdGet, key, 0)
		led.Add(PhaseLatchWait, 10)
		led.AddN(PhaseCoalesce, 10, 4)
		led.Since(PhaseFilter, 0)
		led.SetShard(3)
		led.Finish()
		rec.Record(led)
	})
	if allocs != 0 {
		t.Fatalf("nil ledger path allocated %.1f times per op, want 0", allocs)
	}
}

// TestLedgerAccounting checks phases accumulate and Finish settles
// on_cpu so the phase total is the elapsed time — or, when charges
// overlap (here two synthetic ones), the timed phases alone.
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
	if want := max(led.Elapsed(), led.PhaseNS(PhaseBufFault)+1000+5000); led.PhaseTotal() != want {
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
	rec := NewRecorder(reg, 2, nil)
	for i := 0; i < 10; i++ {
		var led Ledger
		led.StartOp(CmdGet, []byte("k"))
		led.Add(PhaseLatchWait, int64(50*time.Microsecond))
		led.Count(PhaseBufHit)
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

// TestCountOnlyPhasesNotObserved: parse, routing, filter consults and
// buffer hits are counted on the ledger, and so appear in its exemplar,
// but are never observed into a latency histogram; their time is in
// on_cpu, and the exemplar's phases sum exactly to its elapsed time.
func TestCountOnlyPhasesNotObserved(t *testing.T) {
	reg := metrics.New()
	rec := NewRecorder(reg, 1, nil)
	var led Ledger
	rec.Start(&led, CmdGet, []byte("k"), Clock()-int64(time.Millisecond))
	counted := []int{PhaseParse, PhaseRoute, PhaseFilter, PhaseBufHit}
	for _, p := range counted {
		led.Count(p)
	}
	led.Count(PhaseBufHit)
	const fault = int64(300 * time.Microsecond)
	led.Add(PhaseBufFault, fault)
	led.SetShard(0)
	led.Finish()
	rec.Record(&led)

	if n := led.PhaseCount(PhaseBufHit); n != 2 {
		t.Fatalf("buffer_hit count = %d, want 2", n)
	}
	if got, want := led.PhaseNS(PhaseOnCPU), led.Elapsed()-fault; got != want {
		t.Fatalf("on_cpu = %d ns, want elapsed - fault = %d", got, want)
	}
	h := &rec.shards[1].phase[CmdGet]
	for _, p := range counted {
		if led.PhaseNS(p) != 0 || h[p].Count() != 0 {
			t.Errorf("%s: %d ns on the ledger, %d histogram observations; want 0 and 0", PhaseName(p), led.PhaseNS(p), h[p].Count())
		}
	}
	if h[PhaseBufFault].Count() != 1 || h[PhaseOnCPU].Count() != 1 {
		t.Fatalf("observations: buffer_fault %d, on_cpu %d; want 1 each", h[PhaseBufFault].Count(), h[PhaseOnCPU].Count())
	}

	ex := rec.Exemplars()[0]
	if ex.PhaseUS != ex.ElapsedUS {
		t.Fatalf("exemplar phases sum to %vus of %vus elapsed", ex.PhaseUS, ex.ElapsedUS)
	}
	inExemplar := map[string]int64{}
	for _, ps := range ex.Phases {
		inExemplar[ps.Phase] = ps.Count
	}
	for _, p := range counted {
		if inExemplar[PhaseName(p)] == 0 {
			t.Errorf("exemplar lacks counted phase %s: %v", PhaseName(p), inExemplar)
		}
	}

	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"oplog_phase_buffer_hit_seconds_count 0\n", "oplog_phase_on_cpu_seconds_count 1\n"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("registry dump lacks %q", want)
		}
	}
}

// TestRecorderDropsAreMetrics: a ledger naming a shard the recorder has
// no slot for is folded into the unrouted slot and counted — in the
// summary as before, and as a registry series an alert can watch.
func TestRecorderDropsAreMetrics(t *testing.T) {
	reg := metrics.New()
	rec := NewRecorder(reg, 2, nil)
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
// exemplar slot, carrying the ring span the recorder noted between Start
// and Record, and survives a window rotation into the ring.
func TestRecorderExemplars(t *testing.T) {
	ring := trace.New(0)
	tr := trace.NewTracer(ring)
	tr.Emit(trace.EvOvflAlloc, 0, 0, 0, 0) // the span need not start at 0
	rec := NewRecorder(nil, 1, ring)
	record := func(key string, elapsed time.Duration, events int) {
		var led Ledger
		rec.Start(&led, CmdGet, []byte(key), Clock()-int64(elapsed)) // backdate to control Elapsed
		for i := 0; i < events; i++ {
			tr.Emit(trace.EvOvflAlloc, uint64(i), 0, 0, 0)
		}
		led.SetShard(0)
		led.Finish()
		rec.Record(&led)
	}
	record("fast", 10*time.Microsecond, 1)
	record("slow", 10*time.Millisecond, 2)
	record("mid", 1*time.Millisecond, 0)

	exs := rec.Exemplars()
	if len(exs) != 1 {
		t.Fatalf("exemplars = %d, want 1 (one command, one window)", len(exs))
	}
	if exs[0].Key != "slow" {
		t.Fatalf("exemplar key = %q, want the slowest", exs[0].Key)
	}
	if exs[0].TraceSeq0 != 2 || exs[0].TraceSeq1 != 4 {
		t.Fatalf("trace span = [%d, %d), want the slow op's two events [2, 4)", exs[0].TraceSeq0, exs[0].TraceSeq1)
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
	rec := NewRecorder(metrics.New(), 4, nil)
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
						led.Count(PhaseBufHit)
						led.SetShard(g)
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
