// Benchmarks mirroring the paper's evaluation, one per figure, plus
// micro-benchmarks of the primitive operations. The figure benchmarks
// run scaled-down workloads (the full sweeps live in cmd/hashbench,
// which also prints paper-style tables); these give `go test -bench=.`
// coverage of every experiment and report simulated page I/O counts as
// the "io/op" metric alongside wall time.
package unixhash

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unixhash/internal/bench"
	"unixhash/internal/btree"
	"unixhash/internal/core"
	"unixhash/internal/dataset"
	"unixhash/internal/db"
	"unixhash/internal/dynahash"
	"unixhash/internal/gdbm"
	"unixhash/internal/hashfunc"
	"unixhash/internal/hsearch"
	"unixhash/internal/metrics"
	"unixhash/internal/ndbm"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
	"unixhash/internal/sdbm"
	"unixhash/internal/trace"
)

const benchN = 4000 // scaled dictionary for per-iteration cost

var benchDict = dataset.Dictionary(benchN)

// --- Figure 5: page size x fill factor -------------------------------

func BenchmarkFig5PageSweep(b *testing.B) {
	for _, bs := range []int{128, 256, 1024, 8192} {
		for _, ff := range []int{1, 8, 128} {
			b.Run(fmt.Sprintf("bsize=%d/ffactor=%d", bs, ff), func(b *testing.B) {
				var ios int64
				for i := 0; i < b.N; i++ {
					ios += fig5Iter(b, bs, ff)
				}
				b.ReportMetric(float64(ios)/float64(b.N), "io/op")
			})
		}
	}
}

func fig5Iter(b *testing.B, bs, ff int) int64 {
	b.Helper()
	store := pagefile.NewMem(bs, pagefile.CostModel{})
	t, err := core.Open("", &core.Options{
		Bsize: bs, Ffactor: ff, CacheSize: 1 << 20, Nelem: benchN, Store: store,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range benchDict {
		if err := t.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
	}
	if err := t.Sync(); err != nil {
		b.Fatal(err)
	}
	for _, p := range benchDict {
		if _, err := t.Get(p.Key); err != nil {
			b.Fatal(err)
		}
	}
	if err := t.Close(); err != nil {
		b.Fatal(err)
	}
	s := store.Stats().Snapshot()
	return s.Reads + s.Writes
}

// --- Figure 6: known final size vs grown from one bucket -------------

func BenchmarkFig6Growth(b *testing.B) {
	for _, mode := range []struct {
		name  string
		nelem int
	}{{"known", benchN}, {"grown", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := core.Open("", &core.Options{
					Bsize: 256, Ffactor: 8, CacheSize: 1 << 20, Nelem: mode.nelem,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range benchDict {
					if err := t.Put(p.Key, p.Data); err != nil {
						b.Fatal(err)
					}
				}
				if err := t.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: buffer pool size ---------------------------------------

func BenchmarkFig7BufferSweep(b *testing.B) {
	for _, buf := range []int{1, 64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("buf=%dKB", buf/1024), func(b *testing.B) {
			var ios int64
			for i := 0; i < b.N; i++ {
				store := pagefile.NewMem(256, pagefile.CostModel{})
				t, err := core.Open("", &core.Options{
					Bsize: 256, Ffactor: 16, CacheSize: buf, Nelem: benchN, Store: store,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range benchDict {
					if err := t.Put(p.Key, p.Data); err != nil {
						b.Fatal(err)
					}
				}
				for _, p := range benchDict {
					if _, err := t.Get(p.Key); err != nil {
						b.Fatal(err)
					}
				}
				if err := t.Close(); err != nil {
					b.Fatal(err)
				}
				s := store.Stats().Snapshot()
				ios += s.Reads + s.Writes
			}
			b.ReportMetric(float64(ios)/float64(b.N), "io/op")
		})
	}
}

// --- Figure 8a: dictionary database, hash vs ndbm vs hsearch ----------

func BenchmarkFig8aCreate(b *testing.B) {
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fig5Iter(b, 1024, 32)
		}
	})
	b.Run("ndbm", func(b *testing.B) {
		var ios int64
		for i := 0; i < b.N; i++ {
			store := pagefile.NewMem(ndbm.DefaultPageSize, pagefile.CostModel{})
			db, err := ndbm.Open("", &ndbm.Options{Store: store})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range benchDict {
				if err := db.Store(p.Key, p.Data, true); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			s := store.Stats().Snapshot()
			ios += s.Reads + s.Writes
		}
		b.ReportMetric(float64(ios)/float64(b.N), "io/op")
	})
}

func BenchmarkFig8aRead(b *testing.B) {
	// Build each database once; measure lookups.
	ht, err := core.Open("", &core.Options{Bsize: 1024, Ffactor: 32, CacheSize: 1 << 20, Nelem: benchN})
	if err != nil {
		b.Fatal(err)
	}
	defer ht.Close()
	nd, err := ndbm.Open("", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer nd.Close()
	for _, p := range benchDict {
		if err := ht.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
		if err := nd.Store(p.Key, p.Data, true); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := benchDict[i%len(benchDict)]
			if _, err := ht.Get(p.Key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ndbm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := benchDict[i%len(benchDict)]
			if _, err := nd.Fetch(p.Key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig8aSequential(b *testing.B) {
	ht, err := core.Open("", &core.Options{Bsize: 1024, Ffactor: 32, CacheSize: 1 << 20, Nelem: benchN})
	if err != nil {
		b.Fatal(err)
	}
	defer ht.Close()
	nd, err := ndbm.Open("", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer nd.Close()
	for _, p := range benchDict {
		if err := ht.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
		if err := nd.Store(p.Key, p.Data, true); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hash", func(b *testing.B) { // key AND data in one pass
		for i := 0; i < b.N; i++ {
			n := 0
			it := ht.Iter()
			for it.Next() {
				n++
			}
			if it.Err() != nil || n != benchN {
				b.Fatalf("scan: n=%d err=%v", n, it.Err())
			}
		}
	})
	b.Run("ndbm-keys", func(b *testing.B) { // keys only
		for i := 0; i < b.N; i++ {
			n := 0
			c := nd.First()
			for {
				k, err := c.Next()
				if err != nil {
					b.Fatal(err)
				}
				if k == nil {
					break
				}
				n++
			}
			if n != benchN {
				b.Fatalf("scan saw %d", n)
			}
		}
	})
	b.Run("ndbm-with-data", func(b *testing.B) { // second call per key
		for i := 0; i < b.N; i++ {
			c := nd.First()
			for {
				k, err := c.Next()
				if err != nil {
					b.Fatal(err)
				}
				if k == nil {
					break
				}
				if _, err := nd.Fetch(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkFig8aMemory(b *testing.B) {
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t, err := core.Open("", &core.Options{Bsize: 256, Ffactor: 8, CacheSize: 64 << 10, Nelem: benchN})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range benchDict {
				if err := t.Put(p.Key, p.Data); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range benchDict {
				if _, err := t.Get(p.Key); err != nil {
					b.Fatal(err)
				}
			}
			t.Close()
		}
	})
	b.Run("hsearch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl := hsearch.New(benchN, nil)
			for _, p := range benchDict {
				if err := tbl.Enter(string(p.Key), p.Data); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range benchDict {
				if _, ok := tbl.Find(string(p.Key)); !ok {
					b.Fatal("lost key")
				}
			}
		}
	})
	b.Run("dynahash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl := dynahash.New(benchN, 0)
			for _, p := range benchDict {
				tbl.Enter(string(p.Key), p.Data)
			}
			for _, p := range benchDict {
				if _, ok := tbl.Find(string(p.Key)); !ok {
					b.Fatal("lost key")
				}
			}
		}
	})
}

// --- Figure 8b: password database -------------------------------------

func BenchmarkFig8bPasswd(b *testing.B) {
	pairs := dataset.PasswdPairs(dataset.Passwd(0))
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t, err := core.Open("", &core.Options{Bsize: 1024, Ffactor: 32, Nelem: len(pairs)})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pairs {
				if err := t.Put(p.Key, p.Data); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pairs {
				if _, err := t.Get(p.Key); err != nil {
					b.Fatal(err)
				}
			}
			t.Close()
		}
	})
	b.Run("ndbm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := ndbm.Open("", nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pairs {
				if err := db.Store(p.Key, p.Data, true); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pairs {
				if _, err := db.Fetch(p.Key); err != nil {
					b.Fatal(err)
				}
			}
			db.Close()
		}
	})
}

// --- Ablations ---------------------------------------------------------

func BenchmarkAblationSplitPolicy(b *testing.B) {
	for _, mode := range []struct {
		name string
		ctl  bool
	}{{"hybrid", false}, {"controlled-only", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := core.Open("", &core.Options{
					Bsize: 256, Ffactor: 8, CacheSize: 1 << 20, ControlledOnly: mode.ctl,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range benchDict {
					if err := t.Put(p.Key, p.Data); err != nil {
						b.Fatal(err)
					}
				}
				for _, p := range benchDict {
					if _, err := t.Get(p.Key); err != nil {
						b.Fatal(err)
					}
				}
				t.Close()
			}
		})
	}
}

func BenchmarkAblationHashFuncs(b *testing.B) {
	for _, name := range []string{"default", "sdbm", "dbm", "knuth", "fnv1a"} {
		fn := hashfunc.ByName[name]
		b.Run(name, func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				sink += fn(benchDict[i%len(benchDict)].Key)
			}
			_ = sink
		})
	}
}

// --- Micro-benchmarks of the primitives --------------------------------

func BenchmarkPut(b *testing.B) {
	t, err := core.Open("", &core.Options{CacheSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := benchDict[i%len(benchDict)]
		if err := t.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	t, err := core.Open("", &core.Options{CacheSize: 8 << 20, Nelem: benchN})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	for _, p := range benchDict {
		if err := t.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchDict[i%len(benchDict)]
		if _, err := t.Get(p.Key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetBuf is BenchmarkGet with a caller-supplied buffer (0
// allocs/op against BenchmarkGet's 1), and the record of what looking
// costs in-process: the same warm lookup with nothing attached, with a
// trace ring, under a live op ledger folded into a recorder (StartOp →
// GetBufOp → Finish → Record, what a server connection does per GET),
// and with both.
func BenchmarkGetBuf(b *testing.B) {
	for _, tc := range []struct {
		name           string
		tracer, ledger bool
	}{{"plain", false, false}, {"tracer", true, false}, {"ledger", false, true}, {"ledger+tracer", true, true}} {
		b.Run(tc.name, func(b *testing.B) {
			opts := &core.Options{CacheSize: 8 << 20, Nelem: benchN}
			if tc.tracer {
				opts.Trace = trace.New(0)
			}
			t, err := core.Open("", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer t.Close()
			for _, p := range benchDict {
				if err := t.Put(p.Key, p.Data); err != nil {
					b.Fatal(err)
				}
			}
			rec := oplog.NewRecorder(metrics.New(), 1)
			var led oplog.Ledger
			dst := make([]byte, 0, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := benchDict[i%len(benchDict)]
				if !tc.ledger {
					dst, err = t.GetBuf(p.Key, dst)
				} else {
					led.StartOp(oplog.CmdGet, p.Key)
					dst, err = t.GetBufOp(&led, p.Key, dst)
					led.Finish()
					rec.Record(&led)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmTable opens a memory table holding benchDict with every page
// resident: the fixture of the Parallel benchmarks.
func warmTable(b *testing.B) *core.Table {
	t, err := core.Open("", &core.Options{CacheSize: 8 << 20, Nelem: benchN})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range benchDict {
		if err := t.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range benchDict { // warm the pool
		if _, err := t.Get(p.Key); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

// BenchmarkGetParallel measures read scaling over a warm table: every
// goroutine takes the shared table lock and its bucket's pool shard
// only. On a multi-core machine throughput should grow with
// GOMAXPROCS; -cpu=1,2,4,8 sweeps the curve.
func BenchmarkGetParallel(b *testing.B) {
	t := warmTable(b)
	defer t.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, 0, 256)
		i := 0
		for pb.Next() {
			p := benchDict[i%len(benchDict)]
			i++
			var err error
			if dst, err = t.GetBuf(p.Key, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPutParallel is the write side of the same curve: every
// operation rewrites an existing pair, so the table never grows and the
// points stay comparable across -cpu values. uniform spreads the writers
// over all buckets (they meet only on the shared table lock and the
// stripe latches); zipf piles them onto a few hot buckets.
func BenchmarkPutParallel(b *testing.B) {
	for _, dist := range []string{"uniform", "zipf"} {
		zipf := dist == "zipf"
		b.Run(dist, func(b *testing.B) {
			t := warmTable(b)
			defer t.Close()
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				zf := rand.NewZipf(rng, 1.3, 4, uint64(len(benchDict)-1))
				for pb.Next() {
					i := rng.Intn(len(benchDict))
					if zipf {
						i = int(zf.Uint64())
					}
					p := benchDict[i]
					if err := t.Put(p.Key, p.Data); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkGetParallelMixed is the 95% read / 5% write workload: reads
// share the lock while one in twenty operations takes it exclusively to
// rewrite an existing pair.
func BenchmarkGetParallelMixed(b *testing.B) {
	t, err := core.Open("", &core.Options{CacheSize: 8 << 20, Nelem: benchN})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	for _, p := range benchDict {
		if err := t.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, 0, 256)
		i := 0
		for pb.Next() {
			p := benchDict[i%len(benchDict)]
			i++
			var err error
			if i%20 == 0 {
				err = t.Put(p.Key, p.Data)
			} else {
				dst, err = t.GetBuf(p.Key, dst)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGetBesideWrites records what a reader pays for the write
// entry point running beside it: one goroutine writes fresh keys in a
// loop (single Put, PutBatch of 32, or a 32-op transaction) while b.N
// timed GetBufs of resident keys run on the benchmark goroutine. ns/op is
// the reader's mean; p99-ns/op its tail (each Get is timed, so the mean
// includes two clock reads); writes/s the writer's rate over the same
// interval. A finding-recorder for CHANGES.md, not a gate: run with
// -cpu 2 so reader and writer each have a CPU.
func BenchmarkGetBesideWrites(b *testing.B) {
	const (
		batch = 32
		// The key numbers wrap here, so a long run turns into rewrites
		// before the 256-byte pages run out of overflow addresses
		// (ROADMAP item 3; ~500k batched keys on this fixture).
		freshKeys = 400_000
	)
	keyOf := func(buf []byte, n uint64) []byte {
		buf[0] = 'w'
		binary.BigEndian.PutUint64(buf[1:], n%freshKeys)
		return buf[:9]
	}
	val := make([]byte, 16)
	writers := []struct {
		name  string
		write func(t *core.Table, n uint64) (uint64, error) // returns the next fresh key number
	}{
		{"idle", nil},
		{"put", func(t *core.Table, n uint64) (uint64, error) {
			var kb [9]byte
			return n + 1, t.Put(keyOf(kb[:], n), val)
		}},
		{"putbatch32", func(t *core.Table, n uint64) (uint64, error) {
			var kb [batch][9]byte
			var pairs [batch]core.Pair
			for i := range pairs {
				pairs[i] = core.Pair{Key: keyOf(kb[i][:], n+uint64(i)), Data: val}
			}
			return n + batch, t.PutBatch(pairs[:])
		}},
		{"txn32", func(t *core.Table, n uint64) (uint64, error) {
			x, err := t.Begin()
			if err != nil {
				return n, err
			}
			var kb [9]byte
			for i := uint64(0); i < batch; i++ {
				if err := x.Put(keyOf(kb[:], n+i), val); err != nil {
					return n, err
				}
			}
			return n + batch, x.Commit()
		}},
	}
	for _, w := range writers {
		w := w
		b.Run(w.name, func(b *testing.B) {
			t, err := core.Open("", &core.Options{CacheSize: 8 << 20, Nelem: benchN, WAL: w.name == "txn32"})
			if err != nil {
				b.Fatal(err)
			}
			defer t.Close()
			for _, p := range benchDict {
				if err := t.Put(p.Key, p.Data); err != nil {
					b.Fatal(err)
				}
			}
			var stop atomic.Bool
			var written atomic.Uint64
			var wg sync.WaitGroup
			if w.write != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := uint64(0); !stop.Load(); {
						next, err := w.write(t, n)
						if err != nil {
							b.Error(err)
							return
						}
						n = next
						written.Store(n)
					}
				}()
			}
			lat := make([]int32, b.N)
			dst := make([]byte, 0, 256)
			b.ResetTimer()
			w0, t0 := written.Load(), time.Now()
			for i := range lat {
				p := benchDict[i%len(benchDict)]
				s := time.Now()
				if dst, err = t.GetBuf(p.Key, dst); err != nil {
					b.Fatal(err)
				}
				lat[i] = int32(min(time.Since(s), 1<<31-1))
			}
			elapsed, w1 := time.Since(t0), written.Load()
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns/op")
			b.ReportMetric(float64(w1-w0)/elapsed.Seconds(), "writes/s")
		})
	}
}

func BenchmarkBigPut(b *testing.B) {
	t, err := core.Open("", &core.Options{CacheSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	blob := make([]byte, 64<<10)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("big%d", i%64))
		if err := t.Put(key, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIterate(b *testing.B) {
	t, err := core.Open("", &core.Options{CacheSize: 8 << 20, Nelem: benchN})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	for _, p := range benchDict {
		if err := t.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		it := t.Iter()
		for it.Next() {
			n++
		}
		if n != benchN {
			b.Fatalf("scan saw %d", n)
		}
	}
}

// --- Baseline micro-benchmarks (sdbm, gdbm round out the family) -------

func BenchmarkBaselines(b *testing.B) {
	pairs := benchDict[:2000]
	b.Run("sdbm-create-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := sdbm.Open("", nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pairs {
				if err := db.Store(p.Key, p.Data, true); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pairs {
				if _, err := db.Fetch(p.Key); err != nil {
					b.Fatal(err)
				}
			}
			db.Close()
		}
	})
	b.Run("gdbm-create-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := gdbm.Open("", nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pairs {
				if err := db.Store(p.Key, p.Data, true); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pairs {
				if _, err := db.Fetch(p.Key); err != nil {
					b.Fatal(err)
				}
			}
			db.Close()
		}
	})
}

// --- The btree and recno access methods --------------------------------

func BenchmarkBtreePut(b *testing.B) {
	tr, err := btree.Open("", &btree.Options{CacheSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := benchDict[i%len(benchDict)]
		if err := tr.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBtreeGet(b *testing.B) {
	tr, err := btree.Open("", &btree.Options{CacheSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	for _, p := range benchDict {
		if err := tr.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchDict[i%len(benchDict)]
		if _, err := tr.Get(p.Key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBtreeOrderedScan(b *testing.B) {
	tr, err := btree.Open("", &btree.Options{CacheSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	for _, p := range benchDict {
		if err := tr.Put(p.Key, p.Data); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tr.Cursor()
		n := 0
		for c.Next() {
			n++
		}
		if c.Err() != nil || n != benchN {
			b.Fatalf("scan: %d, %v", n, c.Err())
		}
	}
}

func BenchmarkMethodsViaDB(b *testing.B) {
	// The uniform interface's overhead over each engine.
	for _, m := range []db.Method{db.Hash, db.Btree} {
		b.Run(m.String(), func(b *testing.B) {
			d, err := db.Open("", m, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for _, p := range benchDict[:1000] {
				if err := d.Put(p.Key, p.Data); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := benchDict[i%1000]
				if _, err := d.Get(p.Key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Guard: the figure harness itself stays runnable from `go test`.
func BenchmarkHarnessFig8aQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8Dict(1000); err != nil {
			b.Fatal(err)
		}
	}
}
