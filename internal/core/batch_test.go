package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unixhash/internal/buffer"
	"unixhash/internal/pagefile"
)

func batchPairs(lo, hi int, tag string) []Pair {
	pairs := make([]Pair, 0, hi-lo)
	for i := lo; i < hi; i++ {
		pairs = append(pairs, Pair{
			Key:  []byte(fmt.Sprintf("key-%06d", i)),
			Data: []byte(fmt.Sprintf("%s-value-%06d", tag, i)),
		})
	}
	return pairs
}

func TestPutBatchBasic(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()

	pairs := batchPairs(0, 2000, "v1")
	if err := tbl.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 2000 {
		t.Fatalf("Len = %d, want 2000", got)
	}
	for _, p := range pairs {
		v, err := tbl.Get(p.Key)
		if err != nil {
			t.Fatalf("Get %q: %v", p.Key, err)
		}
		if !bytes.Equal(v, p.Data) {
			t.Fatalf("Get %q = %q, want %q", p.Key, v, p.Data)
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter(MetricBatchPuts); got != 1 {
		t.Errorf("batch puts = %d, want 1", got)
	}
	if got := snap.Counter(MetricBatchPairs); got != 2000 {
		t.Errorf("batch pairs = %d, want 2000", got)
	}
	if got := snap.Counter(MetricPuts); got != 2000 {
		t.Errorf("puts = %d, want 2000 (batch pairs count as puts)", got)
	}
}

func TestPutBatchReplaceAndDedupe(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	defer tbl.Close()

	if err := tbl.PutBatch(batchPairs(0, 500, "old")); err != nil {
		t.Fatal(err)
	}
	// Replace half of them, and include every key twice in the same
	// batch — the later occurrence must win, as with sequential Puts.
	batch := append(batchPairs(0, 250, "mid"), batchPairs(0, 250, "new")...)
	if err := tbl.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 500 {
		t.Fatalf("Len = %d, want 500 (replaces must not grow the table)", got)
	}
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		want := fmt.Sprintf("old-value-%06d", i)
		if i < 250 {
			want = fmt.Sprintf("new-value-%06d", i)
		}
		v, err := tbl.Get(key)
		if err != nil {
			t.Fatalf("Get %q: %v", key, err)
		}
		if string(v) != want {
			t.Fatalf("Get %q = %q, want %q", key, v, want)
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPutBatchBigPairs(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	defer tbl.Close()

	big := bytes.Repeat([]byte("B"), 600)
	var pairs []Pair
	for i := 0; i < 200; i++ {
		data := []byte(fmt.Sprintf("small-%d", i))
		if i%5 == 0 {
			data = append([]byte(fmt.Sprintf("big-%d-", i)), big...)
		}
		pairs = append(pairs, Pair{Key: []byte(fmt.Sprintf("key-%04d", i)), Data: data})
	}
	if err := tbl.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	// Replace big with small and small with big, in one batch.
	var swap []Pair
	for i := 0; i < 200; i++ {
		data := []byte(fmt.Sprintf("now-big-%d-", i))
		if i%5 == 0 {
			data = []byte(fmt.Sprintf("now-small-%d", i))
		} else {
			data = append(data, big...)
		}
		swap = append(swap, Pair{Key: []byte(fmt.Sprintf("key-%04d", i)), Data: data})
	}
	if err := tbl.PutBatch(swap); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 200 {
		t.Fatalf("Len = %d, want 200", got)
	}
	for _, p := range swap {
		v, err := tbl.Get(p.Key)
		if err != nil {
			t.Fatalf("Get %q: %v", p.Key, err)
		}
		if !bytes.Equal(v, p.Data) {
			t.Fatalf("Get %q: got %d bytes, want %d", p.Key, len(v), len(p.Data))
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPutBatchEmptyKeyRejectsWholeBatch(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()

	batch := batchPairs(0, 10, "v")
	batch = append(batch, Pair{Key: nil, Data: []byte("x")})
	if err := tbl.PutBatch(batch); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err = %v, want ErrEmptyKey", err)
	}
	if got := tbl.Len(); got != 0 {
		t.Fatalf("Len = %d after rejected batch, want 0", got)
	}
	if err := tbl.PutBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestPutBatchReadOnly(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/batch.db"
	tbl := mustOpen(t, path, &Options{})
	if err := tbl.PutBatch(batchPairs(0, 10, "v")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	ro := mustOpen(t, path, &Options{ReadOnly: true})
	defer ro.Close()
	if err := ro.PutBatch(batchPairs(0, 1, "v")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
}

// TestPutBatchMatchesSequentialPut drives a batch table and a
// sequential-Put table through the same randomized workload (duplicates,
// replaces, big pairs) and requires identical visible state.
func TestPutBatchMatchesSequentialPut(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	opts := func() *Options { return &Options{Bsize: 128, Ffactor: 4} }
	batched := mustOpen(t, "", opts())
	defer batched.Close()
	looped := mustOpen(t, "", opts())
	defer looped.Close()

	model := make(map[string]string)
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(400)
		pairs := make([]Pair, 0, n)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%04d", rng.Intn(600))
			var val string
			if rng.Intn(13) == 0 {
				val = fmt.Sprintf("big:%d:%s", round, bytes.Repeat([]byte("x"), 200+rng.Intn(300)))
			} else {
				val = fmt.Sprintf("r%d-i%d", round, i)
			}
			pairs = append(pairs, Pair{Key: []byte(key), Data: []byte(val)})
			model[key] = val
		}
		if err := batched.PutBatch(pairs); err != nil {
			t.Fatalf("round %d: PutBatch: %v", round, err)
		}
		for _, p := range pairs {
			if err := looped.Put(p.Key, p.Data); err != nil {
				t.Fatalf("round %d: Put: %v", round, err)
			}
		}
	}
	if bl, ll := batched.Len(), looped.Len(); bl != ll || bl != len(model) {
		t.Fatalf("Len: batched %d, looped %d, model %d", bl, ll, len(model))
	}
	for key, want := range model {
		v, err := batched.Get([]byte(key))
		if err != nil {
			t.Fatalf("batched Get %q: %v", key, err)
		}
		if string(v) != want {
			t.Fatalf("batched Get %q = %.32q..., want %.32q...", key, v, want)
		}
	}
	if err := batched.Check(); err != nil {
		t.Fatalf("batched: %v", err)
	}
	if err := looped.Check(); err != nil {
		t.Fatalf("looped: %v", err)
	}
}

// TestPutBatchPresize: a batch into an empty table must jump straight to
// the nelem-derived geometry — the same shape Options.Nelem would have
// produced — and perform zero splits on the way.
func TestPutBatchPresize(t *testing.T) {
	const n = 10000
	presized := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8, Nelem: n})
	defer presized.Close()
	wantGeo := presized.Geometry()

	batched := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer batched.Close()
	if err := batched.PutBatch(batchPairs(0, n, "v")); err != nil {
		t.Fatal(err)
	}
	geo := batched.Geometry()
	if geo.MaxBucket < wantGeo.MaxBucket {
		t.Errorf("presize fast path reached maxBucket %d, Nelem-created table has %d", geo.MaxBucket, wantGeo.MaxBucket)
	}
	snap, err := batched.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter(MetricPresizes); got != 1 {
		t.Errorf("presizes = %d, want 1", got)
	}
	// The fill factor cannot force a split below ffactor*(maxBucket+1)
	// keys, and the presized geometry holds n keys exactly at that bound.
	splits := snap.Counter(MetricSplitsControlled)
	if splits > 1 {
		t.Errorf("presized batch performed %d controlled splits, want <= 1", splits)
	}
	if err := batched.Check(); err != nil {
		t.Fatal(err)
	}

	// A second batch must not re-presize a non-empty table.
	if err := batched.PutBatch(batchPairs(n, n+100, "v")); err != nil {
		t.Fatal(err)
	}
	snap, _ = batched.MetricsSnapshot()
	if got := snap.Counter(MetricPresizes); got != 1 {
		t.Errorf("presizes after second batch = %d, want still 1", got)
	}
}

// TestPresizeAfterDrain: emptying a table (nkeys back to 0) leaves
// non-trivial geometry and possibly freed overflow pages; a presize on
// the next batch must keep every invariant.
func TestPresizeAfterDrain(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 2})
	defer tbl.Close()
	pairs := batchPairs(0, 300, "v")
	if err := tbl.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := tbl.Delete(p.Key); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.Len(); got != 0 {
		t.Fatalf("Len = %d after drain", got)
	}
	// Much larger second load: presize wants to expand the geometry.
	if err := tbl.PutBatch(batchPairs(0, 5000, "w")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 5000 {
		t.Fatalf("Len = %d, want 5000", got)
	}
}

// hookStore calls onRead before a page read reaches the wrapped store,
// so a test can park one on a channel.
type hookStore struct {
	pagefile.Store
	onRead func(pageno uint32)
}

func (h *hookStore) ReadPage(pageno uint32, buf []byte) error {
	h.onRead(pageno)
	return h.Store.ReadPage(pageno, buf)
}

// TestBatchDoesNotQuiesceReaders parks a PutBatch inside the bucket
// applier — the store read of one overflow page of its bucket's chain
// blocks on a channel — and checks who waits for it: a reader of a
// resident key on another stripe must not (the batch holds the table
// lock shared and only its own stripes), a reader of the parked bucket
// must, and once released it sees the batch's value. Buckets 0 and 1
// also sit on different pool shards, which matters because a store read
// runs under its shard's lock.
func TestBatchDoesNotQuiesceReaders(t *testing.T) {
	var parkPage atomic.Int64 // physical page whose read parks; -1 = none
	parkPage.Store(-1)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	store := &hookStore{Store: pagefile.NewMem(256), onRead: func(pageno uint32) {
		if int64(pageno) == parkPage.Load() {
			once.Do(func() { close(parked) })
			<-release
		}
	}}
	tbl := mustOpen(t, "", &Options{
		Store: store, Bsize: 256, CacheSize: 1 << 20,
		Nelem: 4 << 16, Ffactor: 1 << 16, ControlledOnly: true, // four buckets, never split
	})
	defer tbl.Close()
	if tbl.pool.ShardCount() < 16 {
		t.Fatalf("pool has %d shards; buckets 0 and 1 must not share one", tbl.pool.ShardCount())
	}

	// Keys by bucket: bucket 0 gets a chain, bucket 1 one resident key.
	var chainKeys [][]byte
	var otherKey []byte
	for i := 0; len(chainKeys) < 16 || otherKey == nil; i++ {
		switch k := key(i); routeBucket(tbl.hash(k), tbl.geo.Load()) {
		case 0:
			chainKeys = append(chainKeys, k)
		case 1:
			otherKey = k
		}
	}
	old, new_ := bytes.Repeat([]byte{'o'}, 90), bytes.Repeat([]byte{'n'}, 90)
	for _, k := range append(chainKeys[:12:12], otherKey) {
		if err := tbl.Put(k, old); err != nil {
			t.Fatal(err)
		}
	}
	var pages []uint32
	if err := tbl.walkChain(nil, 0, false, func(b *buffer.Buf) (bool, error) {
		if b.Addr.Ovfl {
			pages = append(pages, tbl.hdr.oaddrToPage(oaddr(b.Addr.N)))
		}
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pages) < 3 {
		t.Fatalf("bucket 0 has %d overflow pages, want a chain", len(pages))
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.pool.InvalidateAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(otherKey); err != nil { // resident again
		t.Fatal(err)
	}
	parkPage.Store(int64(pages[2]))

	// The batch: replaces every key of the chain and adds fresh ones, all
	// in bucket 0.
	var pairs []Pair
	for _, k := range chainKeys {
		pairs = append(pairs, Pair{Key: k, Data: new_})
	}
	batchDone := make(chan error, 1)
	go func() { batchDone <- tbl.PutBatch(pairs) }()
	<-parked

	get := func(k []byte) chan error {
		done := make(chan error, 1)
		go func() {
			v, err := tbl.GetBuf(k, nil)
			if err == nil && k[0] != otherKey[0] && !bytes.Equal(v, new_) {
				err = fmt.Errorf("read %.8q...: not the batch's value", v)
			}
			done <- err
		}()
		return done
	}
	select {
	case err := <-get(otherKey):
		if err != nil {
			t.Errorf("Get on another stripe beside a parked batch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Get of a resident key on another stripe blocked behind a parked PutBatch")
	}
	inBucket := get(chainKeys[0])
	select {
	case err := <-inBucket:
		t.Errorf("Get in the parked bucket returned (%v) before the batch finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-batchDone; err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if err := <-inBucket; err != nil {
		t.Errorf("Get in the parked bucket after release: %v", err)
	}
}

func TestCeilLog2MatchesLoop(t *testing.T) {
	for x := uint32(0); x < 1<<16; x++ {
		if got, want := ceilLog2(x), ceilLog2Loop(x); got != want {
			t.Fatalf("ceilLog2(%d) = %d, loop says %d", x, got, want)
		}
	}
	for _, x := range []uint32{1<<31 - 1, 1 << 31, 1<<31 + 1, ^uint32(0)} {
		if got, want := ceilLog2(x), ceilLog2Loop(x); got != want {
			t.Fatalf("ceilLog2(%d) = %d, loop says %d", x, got, want)
		}
	}
}

// ceilLog2Loop is the 4.4BSD __log2 shift loop this package used before
// the bits.Len32 replacement, kept as the reference implementation for
// the equivalence test and the microbenchmark.
func ceilLog2Loop(x uint32) uint32 {
	var p uint32
	for v := uint32(1); v < x; v <<= 1 {
		p++
		if p >= 32 {
			break
		}
	}
	return p
}

var sinkU32 uint32

func BenchmarkCeilLog2(b *testing.B) {
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU32 += ceilLog2Loop(uint32(i) | 1)
		}
	})
	b.Run("bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU32 += ceilLog2(uint32(i) | 1)
		}
	})
}

func BenchmarkBucketToPage(b *testing.B) {
	h := &header{hdrPages: 1}
	for i := range h.spares {
		h.spares[i] = uint32(i * 3)
	}
	b.Run("bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU32 += h.bucketToPage(uint32(i) & 0xffff)
		}
	})
}

func BenchmarkPutBatch(b *testing.B) {
	pairs := batchPairs(0, 10000, "v")
	b.Run("looped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl, _ := Open("", &Options{Bsize: 1024, Ffactor: 16, CacheSize: 1 << 22})
			for _, p := range pairs {
				if err := tbl.Put(p.Key, p.Data); err != nil {
					b.Fatal(err)
				}
			}
			tbl.Close()
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl, _ := Open("", &Options{Bsize: 1024, Ffactor: 16, CacheSize: 1 << 22})
			if err := tbl.PutBatch(pairs); err != nil {
				b.Fatal(err)
			}
			tbl.Close()
		}
	})
}
