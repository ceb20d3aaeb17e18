package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"unixhash/internal/pagefile"
	"unixhash/internal/wal"
)

// The WAL crash matrix: power cuts across BOTH journals — the page store
// and the log file — at consistent cut pairs, including torn page writes
// and torn log appends. The recovery contract under a WAL is stronger
// than PR 2's: the table must come back holding the state of the last
// checkpoint plus every acknowledged transaction commit (all of which
// are fsynced in the log), or fail loudly with ErrUnrecoverable. Plain
// (non-transactional) Puts between checkpoints are volatile by contract
// and may be lost.
//
// The workload runs with a cache large enough that no dirty page is
// evicted between checkpoints: pages reach the store only through Sync.
// (With evictions, post-checkpoint pages can reach the store and the
// strict recovery gate then refuses the file — the "fails loudly" leg of
// the contract, exercised separately in the fuzz harness.)

// walPoint is one moment in the workload timeline at which both journals
// were quiescent, with the state recovery must reproduce there.
type walPoint struct {
	sEvents int  // store journal length at this point
	dEvents int  // log journal length at this point
	kind    byte // 'o' open, 'p' plain op, 'c' txn commit, 's' sync/checkpoint
	state   map[string]string
}

const walCrashCache = 1 << 20 // no evictions: pages move only at checkpoints

func walCrashOpts(store pagefile.Store, dev wal.Device) *Options {
	return &Options{Store: store, WALDevice: dev, Bsize: 128, Ffactor: 4, CacheSize: walCrashCache}
}

// walCrashWorkload drives plain ops, transactions (with deletes and big
// pairs) and periodic checkpoints over journaling store+log, recording a
// timeline point after every operation. The table is deliberately
// abandoned un-synced so the tail of the timeline has commits that live
// only in the log.
func walCrashWorkload(t *testing.T, nops, syncEvery int) (*pagefile.CrashStore, *wal.CrashDevice, []walPoint) {
	t.Helper()
	cs := pagefile.NewCrash(pagefile.NewMem(128))
	cd := wal.NewCrashDevice()
	tbl := mustOpen(t, "", walCrashOpts(cs, cd))

	live := map[string]string{}    // what the open table serves
	durable := map[string]string{} // what recovery must reproduce
	var points []walPoint
	record := func(kind byte) {
		points = append(points, walPoint{
			sEvents: cs.Len(),
			dEvents: cd.Len(),
			kind:    kind,
			state:   cloneState(durable),
		})
	}
	record('o')

	bigVal := func(i int) []byte { return bytes.Repeat([]byte{byte('A' + i%26)}, 300) }
	for i := 0; i < nops; i++ {
		switch {
		case i%syncEvery == syncEvery-1:
			if err := tbl.Sync(); err != nil {
				t.Fatalf("sync %d: %v", i, err)
			}
			durable = cloneState(live)
			record('s')
		case i%5 == 2:
			// A transaction: one or two puts (periodically big) plus a
			// delete of an older key.
			x, err := tbl.Begin()
			if err != nil {
				t.Fatalf("begin %d: %v", i, err)
			}
			k, v := key(i), val(i)
			if i%15 == 7 {
				v = bigVal(i)
			}
			if err := x.Put(k, v); err != nil {
				t.Fatalf("txn put %d: %v", i, err)
			}
			ops := [][2]string{{string(k), string(v)}}
			if i%10 == 2 {
				k2, v2 := key(1000+i), val(1000+i)
				if err := x.Put(k2, v2); err != nil {
					t.Fatalf("txn put2 %d: %v", i, err)
				}
				ops = append(ops, [2]string{string(k2), string(v2)})
			}
			dk := string(key(i - 4))
			if err := x.Delete(key(i - 4)); err != nil {
				t.Fatalf("txn del %d: %v", i, err)
			}
			if err := x.Commit(); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			for _, kv := range ops {
				live[kv[0]] = kv[1]
				durable[kv[0]] = kv[1]
			}
			delete(live, dk)
			delete(durable, dk)
			record('c')
		case i%7 == 5:
			k := string(key(i - 3))
			err := tbl.Delete(key(i - 3))
			if _, ok := live[k]; ok {
				if err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
				delete(live, k)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete absent %d: %v", i, err)
			}
			record('p')
		default:
			if err := tbl.Put(key(i), val(i)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			live[string(key(i))] = string(val(i))
			record('p')
		}
	}
	return cs, cd, points
}

// checkWALCrashState materializes one (store, log) cut pair and verifies
// the recovery contract there. exact marks a cut that lands precisely on
// a recorded quiescent point with nothing torn — recovery MUST succeed
// there; elsewhere a loud failure is within contract.
func checkWALCrashState(t *testing.T, cs *pagefile.CrashStore, cd *wal.CrashDevice, points []walPoint, sCut, dCut, sTorn, dTorn int) string {
	t.Helper()
	ms, err := cs.Materialize(sCut, sTorn)
	if err != nil {
		t.Fatalf("materialize store (%d, %d): %v", sCut, sTorn, err)
	}
	wdev := cd.Materialize(dCut, dTorn)

	floor, exact := 0, false
	for i, p := range points {
		if p.sEvents <= sCut && p.dEvents <= dCut {
			floor = i
			exact = p.sEvents == sCut && p.dEvents == dCut && sTorn == 0 && dTorn == 0
		}
	}

	tbl, rep, err := Recover("", walCrashOpts(ms, wdev))
	if err != nil {
		if exact {
			t.Fatalf("cut (%d,%d) exactly at point %d (%c): recover failed: %v",
				sCut, dCut, floor, points[floor].kind, err)
		}
		return "failed-loud"
	}
	defer tbl.Close()

	got := readAll(t, tbl)
	// The recovered state is the floor's durable state, or the next
	// point's if the in-flight operation's effects fully made it in.
	hi := floor + 1
	if hi >= len(points) {
		hi = len(points) - 1
	}
	if !mapsEqual(got, points[floor].state) && !mapsEqual(got, points[hi].state) {
		t.Fatalf("cut (%d,%d) torn (%d,%d): recovered %d keys matching neither point %d (%d keys) nor %d (%d keys); report %+v",
			sCut, dCut, sTorn, dTorn, len(got), floor, len(points[floor].state), hi, len(points[hi].state), rep)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("cut (%d,%d): post-recovery Check: %v", sCut, dCut, err)
	}
	probe := []byte("post-recovery-probe")
	if err := tbl.Put(probe, probe); err != nil {
		t.Fatalf("cut (%d,%d): post-recovery put: %v", sCut, dCut, err)
	}
	if v, err := tbl.Get(probe); err != nil || !bytes.Equal(v, probe) {
		t.Fatalf("cut (%d,%d): post-recovery get: %v", sCut, dCut, err)
	}
	if rep.WALTxns > 0 {
		return "recovered-replayed"
	}
	if rep.WasDirty {
		return "recovered-dirty"
	}
	return "recovered-clean"
}

// TestWALCrashMatrix sweeps consistent cut pairs across the whole
// workload: every quiescent point, every mid-operation journal prefix on
// the side the operation touches first, and torn variants of both the
// final page write and the final log append. Within one operation the
// ordering is deterministic — a commit touches the log before the store
// (append, fsync, then apply under latches), a checkpoint touches the
// store before the log (flush, header, then reset) — so the two sweeps
// per interval cover every real power-cut instant.
func TestWALCrashMatrix(t *testing.T) {
	nops, syncEvery := 100, 18
	if testing.Short() {
		nops, syncEvery = 40, 12
	}
	cs, cd, points := walCrashWorkload(t, nops, syncEvery)
	t.Logf("journals: %d store events, %d log events, %d points", cs.Len(), cd.Len(), len(points))

	outcomes := map[string]int{}
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		// Exact boundary: must recover.
		outcomes[checkWALCrashState(t, cs, cd, points, cur.sEvents, cur.dEvents, 0, 0)]++

		switch cur.kind {
		case 'c':
			// Log first: sweep log prefixes with the store as it was, then
			// store prefixes with the log complete.
			for d := prev.dEvents; d <= cur.dEvents; d++ {
				outcomes[checkWALCrashState(t, cs, cd, points, prev.sEvents, d, 0, 0)]++
				if wl := cd.NextWriteLen(d); wl > 0 {
					for _, torn := range []int{1, wl / 2, wl - 1} {
						if torn <= 0 {
							continue
						}
						outcomes[checkWALCrashState(t, cs, cd, points, prev.sEvents, d, 0, torn)]++
					}
				}
			}
			for s := prev.sEvents; s <= cur.sEvents; s++ {
				outcomes[checkWALCrashState(t, cs, cd, points, s, cur.dEvents, 0, 0)]++
				outcomes[checkWALCrashState(t, cs, cd, points, s, cur.dEvents, 64, 0)]++
			}
		case 's':
			// Store first: mid-checkpoint cuts leave partially flushed
			// pages against the pre-reset log.
			for s := prev.sEvents; s <= cur.sEvents; s++ {
				outcomes[checkWALCrashState(t, cs, cd, points, s, prev.dEvents, 0, 0)]++
				for _, torn := range []int{1, 64, 127} {
					outcomes[checkWALCrashState(t, cs, cd, points, s, prev.dEvents, torn, 0)]++
				}
			}
			for d := prev.dEvents; d <= cur.dEvents; d++ {
				outcomes[checkWALCrashState(t, cs, cd, points, cur.sEvents, d, 0, 0)]++
				if wl := cd.NextWriteLen(d); wl > 0 {
					outcomes[checkWALCrashState(t, cs, cd, points, cur.sEvents, d, 0, wl/2)]++
				}
			}
		default:
			for s := prev.sEvents; s <= cur.sEvents; s++ {
				outcomes[checkWALCrashState(t, cs, cd, points, s, prev.dEvents, 0, 0)]++
			}
		}
	}
	t.Logf("outcomes: %v", outcomes)
	if outcomes["recovered-replayed"] == 0 {
		t.Error("matrix never exercised log replay")
	}
	if outcomes["recovered-clean"] == 0 {
		t.Error("matrix never exercised a clean checkpoint-boundary reopen")
	}
	if outcomes["recovered-dirty"] == 0 {
		t.Error("matrix never exercised a dirty page-level recovery")
	}
}

// TestWALRecoverMidSplitTornTail is the PR 2 × PR 6 × WAL matrix cell
// called out in the issue: transactions whose commits trigger incremental
// splits, crashed with the NEXT transaction's log append torn at every
// byte boundary. Replay must re-run the splits deterministically and land
// on the committed state, never on a half-split table.
func TestWALRecoverMidSplitTornTail(t *testing.T) {
	cs := pagefile.NewCrash(pagefile.NewMem(128))
	cd := wal.NewCrashDevice()
	tbl := mustOpen(t, "", walCrashOpts(cs, cd))

	// Checkpointed baseline near the split threshold, then transactions
	// that push bucket after bucket over it — each commit runs its
	// splits before returning.
	want := map[string]string{}
	for i := 0; i < 30; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatalf("baseline put: %v", err)
		}
		want[string(key(i))] = string(val(i))
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	preBuckets := tbl.Geometry().MaxBucket
	for i := 30; i < 60; i++ {
		x, err := tbl.Begin()
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		if err := x.Put(key(i), val(i)); err != nil {
			t.Fatalf("txn put: %v", err)
		}
		if err := x.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		want[string(key(i))] = string(val(i))
	}
	if tbl.Geometry().MaxBucket == preBuckets {
		t.Fatalf("workload triggered no splits (maxBucket still %d)", preBuckets)
	}
	sCut, dCut := cs.Len(), cd.Len()

	// One more transaction whose append we tear at every byte length: it
	// was never acknowledged, so recovery may not contain it — and at no
	// tear length may the torn frame corrupt what came before.
	x, err := tbl.Begin()
	if err != nil {
		t.Fatalf("begin last: %v", err)
	}
	if err := x.Put(key(99), val(99)); err != nil {
		t.Fatalf("txn put: %v", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatalf("commit last: %v", err)
	}
	appendLen := cd.NextWriteLen(dCut)
	if appendLen == 0 {
		t.Fatalf("event %d is not the torn append", dCut)
	}

	for torn := 0; torn <= appendLen; torn++ {
		ms, err := cs.Materialize(sCut, 0)
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		wdev := cd.Materialize(dCut, torn)
		re, rep, err := Recover("", walCrashOpts(ms, wdev))
		if err != nil {
			t.Fatalf("torn %d/%d: recover: %v", torn, appendLen, err)
		}
		got := readAll(t, re)
		expect := want
		if torn == appendLen {
			// The whole append (ops + commit frame in one write) made it:
			// the commit is replayable even though never acknowledged.
			expect = cloneState(want)
			expect[string(key(99))] = string(val(99))
		}
		if !mapsEqual(got, expect) {
			t.Fatalf("torn %d/%d: recovered %d keys, want %d (report %+v)", torn, appendLen, len(got), len(expect), rep)
		}
		if rep.WALTxns == 0 {
			t.Fatalf("torn %d: nothing replayed (report %+v)", torn, rep)
		}
		if g := re.Geometry(); g.MaxBucket == preBuckets {
			t.Fatalf("torn %d: replay did not re-run the splits", torn)
		}
		if err := re.Check(); err != nil {
			t.Fatalf("torn %d: check: %v", torn, err)
		}
		re.Close()
	}
}

// Shared workload for the fuzz harness, built once per process.
var (
	fuzzOnce   sync.Once
	fuzzStore  *pagefile.CrashStore
	fuzzDev    *wal.CrashDevice
	fuzzPoints []walPoint
)

func fuzzWorkload(t *testing.T) (*pagefile.CrashStore, *wal.CrashDevice, []walPoint) {
	fuzzOnce.Do(func() {
		fuzzStore, fuzzDev, fuzzPoints = walCrashWorkload(t, 60, 14)
	})
	return fuzzStore, fuzzDev, fuzzPoints
}

// FuzzWALCrashRecovery extends the PR 2 fuzz harness with power-cut
// prefixes of the log file itself: an arbitrary log journal cut, an
// arbitrary torn tail of the in-flight append, and an optional flipped
// byte, recovered against the consistent store state. The invariant is
// the loud-or-exact contract: recovery either fails with an error or
// produces a structurally sound table matching a recorded durable state.
func FuzzWALCrashRecovery(f *testing.F) {
	f.Add(0, 0, false, 0)
	f.Add(3, 1, false, 0)
	f.Add(7, 0, true, 40)
	f.Add(11, 5, true, 9)
	f.Fuzz(func(t *testing.T, dCut, dTorn int, flip bool, flipAt int) {
		cs, cd, points := fuzzWorkload(t)
		if dCut < 0 {
			dCut = -dCut
		}
		dCut %= cd.Len() + 1
		if wl := cd.NextWriteLen(dCut); wl > 0 && dTorn != 0 {
			if dTorn < 0 {
				dTorn = -dTorn
			}
			dTorn %= wl + 1
		} else {
			dTorn = 0
		}
		// The store state journaled at the newest point whose log events
		// are all inside the cut — the state a real power cut at this log
		// moment would have left.
		floor := 0
		for i, p := range points {
			if p.dEvents <= dCut {
				floor = i
			}
		}
		sCut := points[floor].sEvents

		ms, err := cs.Materialize(sCut, 0)
		if err != nil {
			t.Fatalf("materialize store: %v", err)
		}
		wdev := cd.Materialize(dCut, dTorn)
		if flip {
			b := wdev.Bytes()
			if len(b) > 0 {
				if flipAt < 0 {
					flipAt = -flipAt
				}
				b[flipAt%len(b)] ^= 0x40
				wdev = wal.NewMemDevice()
				wdev.WriteAt(b, 0)
			}
		}

		tbl, rep, err := Recover("", walCrashOpts(ms, wdev))
		if err != nil {
			return // loud failure is within contract for damaged logs
		}
		defer tbl.Close()
		got := readAll(t, tbl)
		matched := false
		for _, p := range points {
			if mapsEqual(got, p.state) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("dCut %d torn %d flip %v: recovered %d keys matching no recorded durable state (report %+v)",
				dCut, dTorn, flip, len(got), rep)
		}
		if err := tbl.Check(); err != nil {
			t.Fatalf("dCut %d torn %d: post-recovery Check: %v", dCut, dTorn, err)
		}
	})
}

var _ = fmt.Sprintf // keep fmt imported if assertions change
