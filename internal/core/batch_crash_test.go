package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"unixhash/internal/pagefile"
)

// Batch-path crash consistency. The batched write pipeline changes the
// order mutations reach the store — one dirty epoch covers a whole
// batch, splits run deferred at batch end, and FlushAll rewrites the
// dirty set in file order — so the PR 2 recovery contract is re-proven
// over a PutBatch workload: every journal prefix (a power cut inside a
// batch, between batches, or inside the deferred-split pass) plus torn
// variants of the final write must recover to the exact contents of a
// completed sync, or fail loudly.

// crashBatchWorkload drives PutBatch chunks (with big pairs and
// interleaved deletes) over a CrashStore, syncing after each batch. The
// first batch is large enough to take the presize fast path on the empty
// table, so crash points inside presized geometry are in the matrix too.
func crashBatchWorkload(t *testing.T, batches, perBatch int) (*pagefile.CrashStore, []crashSnap) {
	t.Helper()
	cs := pagefile.NewCrash(pagefile.NewMem(128, pagefile.CostModel{}))
	opts := &Options{Store: cs, Bsize: 128, Ffactor: 4, CacheSize: 1024}
	tbl := mustOpen(t, "", opts)

	model := map[string]string{}
	snaps := []crashSnap{{events: 0, epoch: 0, state: map[string]string{}}}
	record := func() {
		snaps = append(snaps, crashSnap{
			events: cs.Len(),
			epoch:  tbl.Geometry().SyncEpoch,
			state:  cloneState(model),
		})
	}

	next := 0
	for b := 0; b < batches; b++ {
		pairs := make([]Pair, 0, perBatch)
		for j := 0; j < perBatch; j++ {
			i := next
			next++
			k := key(i)
			var v []byte
			if i%17 == 13 {
				// Big pair: 300 bytes cannot fit a 128-byte page.
				v = bytes.Repeat([]byte{byte('A' + i%26)}, 300)
			} else if i%11 == 3 && b > 0 {
				// Replace a key from an earlier, already-synced batch.
				k = key(i - perBatch)
				v = []byte(fmt.Sprintf("replaced-%d", i))
			} else {
				v = val(i)
			}
			pairs = append(pairs, Pair{Key: k, Data: v})
			model[string(k)] = string(v)
		}
		if err := tbl.PutBatch(pairs); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		// A few deletes between the batch and its sync: the crash matrix
		// then holds prefixes where a batch epoch contains mixed mutations.
		for j := 0; j < 3; j++ {
			i := b*perBatch + j*5 + 1
			k := key(i)
			err := tbl.Delete(k)
			if _, present := model[string(k)]; present {
				if err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
				delete(model, string(k))
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete absent %d: %v", i, err)
			}
		}
		if err := tbl.Sync(); err != nil {
			t.Fatalf("sync after batch %d: %v", b, err)
		}
		record()
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	record() // Close syncs
	return cs, snaps
}

// TestBatchCrashMatrix is the batch-pipeline analogue of
// TestCrashMatrix: every write prefix of the batched workload, and torn
// variants of each final write, must satisfy the recovery contract.
func TestBatchCrashMatrix(t *testing.T) {
	batches, perBatch := 4, 40
	if testing.Short() {
		batches, perBatch = 2, 20
	}
	cs, snaps := crashBatchWorkload(t, batches, perBatch)
	events := cs.Len()
	t.Logf("journal: %d events, %d sync snapshots", events, len(snaps))

	outcomes := map[string]int{}
	for n := 0; n <= events; n++ {
		outcomes[checkCrashState(t, cs, snaps, n, 0)]++
	}
	evs := cs.Events()
	for n := 1; n <= events; n++ {
		if evs[n-1].Sync {
			continue
		}
		for _, torn := range []int{1, 64, 127} {
			outcomes[checkCrashState(t, cs, snaps, n, torn)]++
		}
	}
	t.Logf("outcomes: %v", outcomes)
	for _, want := range []string{"recovered-clean", "recovered-dirty", "failed-loud"} {
		if outcomes[want] == 0 {
			t.Errorf("matrix never produced outcome %q", want)
		}
	}
}

// TestBatchCrashInsideSplitPass pins a crash point inside the deferred
// split pass specifically: a batch into a table held at one bucket
// (huge ffactor would prevent splits, so instead a small table gets a
// batch big enough that the fill factor forces many splits at batch
// end). The journal suffix after the last pair insert and before the
// sync is dominated by split writes; every prefix in that window must
// recover to the pre-batch synced state.
func TestBatchCrashInsideSplitPass(t *testing.T) {
	cs := pagefile.NewCrash(pagefile.NewMem(128, pagefile.CostModel{}))
	opts := &Options{Store: cs, Bsize: 128, Ffactor: 4, CacheSize: 1024}
	tbl := mustOpen(t, "", opts)

	model := map[string]string{}
	snaps := []crashSnap{{events: 0, epoch: 0, state: map[string]string{}}}
	// Seed + sync so the table is non-empty (no presize fast path) and
	// the deferred pass has real splitting to do.
	seed := batchPairs(0, 30, "seed")
	if err := tbl.PutBatch(seed); err != nil {
		t.Fatal(err)
	}
	for _, p := range seed {
		model[string(p.Key)] = string(p.Data)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, crashSnap{events: cs.Len(), epoch: tbl.Geometry().SyncEpoch, state: cloneState(model)})
	preSplitEvents := cs.Len()
	preBuckets := tbl.Geometry().MaxBucket

	// The second batch quadruples the key count: the deferred pass must
	// split repeatedly to restore the fill factor.
	grow := batchPairs(30, 150, "grow")
	if err := tbl.PutBatch(grow); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Geometry().MaxBucket; got <= preBuckets {
		t.Fatalf("deferred split pass did not grow the table (%d -> %d buckets)", preBuckets+1, got+1)
	}
	for _, p := range grow {
		model[string(p.Key)] = string(p.Data)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, crashSnap{events: cs.Len(), epoch: tbl.Geometry().SyncEpoch, state: cloneState(model)})

	// Every crash point from mid-batch through the split pass to the
	// final sync: recovery lands on the seed state or the final state,
	// never a hybrid.
	events := cs.Len()
	outcomes := map[string]int{}
	for n := preSplitEvents; n <= events; n++ {
		outcomes[checkCrashState(t, cs, snaps, n, 0)]++
	}
	t.Logf("split-pass window: %d states, outcomes %v", events-preSplitEvents+1, outcomes)
	if outcomes["recovered-clean"] == 0 {
		t.Error("no crash point recovered clean (expected at least the window edges)")
	}
}
