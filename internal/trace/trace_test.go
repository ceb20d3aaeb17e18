package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTracerWithoutRingOnlyCounts: with tracing off (no ring) a tracer
// still counts every event by type and kind, and publishes none; a nil
// ring reports nothing.
func TestTracerWithoutRingOnlyCounts(t *testing.T) {
	tr := NewTracer(nil)
	tr.Emit(EvSplitBegin, 1, 2, 3, 0)
	tr.Emit(EvSplitBegin, 1, 2, 3, 1)
	tr.Emit(EvSplitBegin, 4, 5, 6, 1)
	tr.EmitDur(EvSyncEnd, time.Second, 1, 0, 0, 0)
	tr.Emit(EvRecoveryStep, RecoveryStepDone, 9, 9, 0)
	tr.SlowIO(IORead, 7, 4096, time.Second)
	tr.SlowIO(IORead, 7, 4096, time.Microsecond) // fast: not an event
	for _, c := range []struct {
		typ  Type
		kind uint64
		want int64
	}{
		{EvSplitBegin, 0, 1}, {EvSplitBegin, 1, 2}, {EvSyncEnd, 0, 1},
		{EvRecoveryStep, RecoveryStepDone, 1}, {EvRecoveryStep, RecoveryStepWalk, 0},
		{EvSlowIO, 0, 1}, {EvOvflAlloc, 0, 0},
	} {
		if got := tr.Count(c.typ, c.kind); got != c.want {
			t.Errorf("Count(%v, %d) = %d, want %d", c.typ, c.kind, got, c.want)
		}
	}
	if tr.Ring() != nil {
		t.Fatal("a tracer without a ring reports one")
	}
	var r *Ring
	if r.Range(0, 10) != nil || r.Next() != 0 {
		t.Fatal("a nil ring reports events")
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Emit(EvOvflAlloc, 1, 2, 3, 4) }); n != 0 {
		t.Fatalf("Emit without a ring allocates %.1f times per op, want 0", n)
	}
}

func TestEmitAndSnapshot(t *testing.T) {
	tr := NewTracer(New(64))
	tr.Emit(EvSplitBegin, 3, 7, 7, 1)
	tr.EmitDur(EvSplitEnd, 5*time.Millisecond, 3, 7, 42, 2)
	tr.Emit(EvOvflAlloc, 2, 11, 2<<11|11, 0)

	evs := tr.Ring().Events(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Time == 0 {
			t.Fatalf("event %d has zero timestamp", i)
		}
	}
	if evs[0].Type != EvSplitBegin || evs[0].Args != [4]uint64{3, 7, 7, 1} {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Dur != 5*time.Millisecond {
		t.Fatalf("event 1 dur = %v", evs[1].Dur)
	}

	// Filter by type.
	only := tr.Ring().Events(0, EvOvflAlloc)
	if len(only) != 1 || only[0].Type != EvOvflAlloc {
		t.Fatalf("filtered events = %v", only)
	}
	// Cap by max keeps the newest.
	last := tr.Ring().Events(1)
	if len(last) != 1 || last[0].Type != EvOvflAlloc {
		t.Fatalf("Events(1) = %v", last)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := NewTracer(New(64)) // minimum ring: 64 slots
	n := 64 * 3
	for i := 0; i < n; i++ {
		tr.Emit(EvOvflAlloc, uint64(i), 0, 0, 0)
	}
	evs := tr.Ring().Events(0)
	if len(evs) != 64 {
		t.Fatalf("got %d events after wrap, want 64", len(evs))
	}
	for i, e := range evs {
		want := uint64(n - 64 + i)
		if e.Seq != want || e.Args[0] != want {
			t.Fatalf("event %d = seq %d args %v, want seq %d", i, e.Seq, e.Args, want)
		}
	}
}

func TestTypeNamesRoundTrip(t *testing.T) {
	for ty := EvSplitBegin; ty <= EvSlowIO; ty++ {
		name := ty.String()
		if strings.HasPrefix(name, "type(") {
			t.Fatalf("type %d has no name", ty)
		}
		if got := ParseType(name); got != ty {
			t.Fatalf("ParseType(%q) = %d, want %d", name, got, ty)
		}
	}
	if ParseType("no-such-event") != EvNone {
		t.Fatal("unknown name did not map to EvNone")
	}
}

func TestEventJSON(t *testing.T) {
	e := Event{Seq: 9, Time: 12345, Type: EvSplitBegin, Dur: time.Millisecond, Args: [4]uint64{1, 2, 3, 1}}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["type"] != "split-begin" || m["seq"] != float64(9) {
		t.Fatalf("json = %s", b)
	}
	args, ok := m["args"].(map[string]any)
	if !ok || args["old_bucket"] != float64(1) || args["uncontrolled"] != float64(1) {
		t.Fatalf("json args = %s", b)
	}
}

// TestRingConcurrentNoTears is the -race stress test: many writers
// emitting invariant-carrying events while a reader continuously drains
// snapshots, exactly as /debug/events does. Every observed event must
// be internally consistent (no torn payloads) and every snapshot's
// sequence numbers strictly monotonic. A writer lapped mid-publish costs
// one dropped event, never a torn or stale slot, so every sequence number
// is accounted for as either published or dropped.
func TestRingConcurrentNoTears(t *testing.T) {
	tr := NewTracer(New(256)) // small ring so wrapping is constant
	const (
		writers = 8
		perW    = 20000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var published atomic.Uint64
	droppedSeqs := make([][]uint64, writers)

	// Writers: args carry an invariant (a2 = a0^a1, a3 = a0+a1) that any
	// torn mix of two events would violate.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := uint64(0); i < perW; i++ {
				seq, ok := tr.ring.emit(EvOvflAlloc, int64(i), 0, id, i, id^i, id+i)
				if ok {
					published.Add(1)
				} else {
					droppedSeqs[id] = append(droppedSeqs[id], seq)
				}
			}
		}(uint64(w))
	}

	check := func(evs []Event) {
		last := int64(-1)
		for _, e := range evs {
			if int64(e.Seq) <= last {
				t.Errorf("sequence not strictly monotonic: %d after %d", e.Seq, last)
				return
			}
			last = int64(e.Seq)
			if e.Type != EvOvflAlloc {
				t.Errorf("unexpected type %v in seq %d", e.Type, e.Seq)
				return
			}
			a := e.Args
			if a[2] != a[0]^a[1] || a[3] != a[0]+a[1] {
				t.Errorf("torn event seq %d: args %v", e.Seq, a)
				return
			}
		}
	}

	// Reader: drain snapshots concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			check(tr.Ring().Events(0))
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-done

	head := tr.Ring().Next()
	if head != writers*perW {
		t.Fatalf("ring head = %d, want %d", head, writers*perW)
	}
	if p, d := published.Load(), tr.Ring().Dropped(); p+d != head {
		t.Fatalf("emitted %d != published %d + dropped %d", head, p, d)
	}

	// Quiescent ring: the newest Cap() sequence numbers, each intact
	// unless its own writer dropped it.
	window := head - uint64(tr.Ring().Cap())
	inWindow := 0
	for _, seqs := range droppedSeqs {
		for _, seq := range seqs {
			if seq >= window {
				inWindow++
			}
		}
	}
	evs := tr.Ring().Events(0)
	if want := tr.Ring().Cap() - inWindow; len(evs) != want {
		t.Fatalf("quiescent snapshot has %d events, want %d (%d dropped in window)", len(evs), want, inWindow)
	}
	check(evs)
	if len(evs) > 0 && evs[0].Seq < window {
		t.Fatalf("oldest seq %d is outside the window starting at %d", evs[0].Seq, window)
	}
}

func TestEmitAllocFree(t *testing.T) {
	tr := NewTracer(New(64))
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvOvflAlloc, 1, 2, 3, 4)
	}); n != 0 {
		t.Fatalf("Emit allocates %.1f times per op, want 0", n)
	}
}
