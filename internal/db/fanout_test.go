package db

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"unixhash/internal/core"
	"unixhash/internal/pagefile"
)

// openLoneBatch opens a memory-resident database of n shards and returns
// it with a one-pair batch already applied once, so the table is presized
// and every later call is a plain overwrite.
func openLoneBatch(tb testing.TB, n int) (*Sharded, []Pair) {
	tb.Helper()
	s, err := OpenSharded("", n, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	pair := []Pair{{Key: []byte("lone"), Data: []byte("v")}}
	if err := s.PutBatch(pair); err != nil {
		tb.Fatal(err)
	}
	return s, pair
}

// TestShardedLoneBatchAllocs: a one-pair PutBatch — what an unpipelined
// PUT becomes in the server — allocates no more on 2 or 8 shards than on
// one. It goes straight to its shard: no partition, goroutine or join.
func TestShardedLoneBatchAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		s, pair := openLoneBatch(t, n)
		return testing.AllocsPerRun(200, func() {
			if err := s.PutBatch(pair); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(1)
	for _, n := range []int{2, 8} {
		if got := allocs(n); got > base {
			t.Errorf("%d shards: one-pair PutBatch allocates %v, one shard %v", n, got, base)
		}
	}
}

// TestShardedBatchFaultNamesShards: a batch that spans shards applies one
// sub-batch on the calling goroutine and the other on a fan-out goroutine;
// a read fault in either comes back in the one joined error, naming the
// shard it came from and no other.
func TestShardedBatchFaultNamesShards(t *testing.T) {
	const bsize = 512
	open := func() (*Sharded, []*pagefile.FaultStore, []Pair) {
		faults := []*pagefile.FaultStore{
			pagefile.NewFault(pagefile.NewMem(bsize, pagefile.CostModel{})),
			pagefile.NewFault(pagefile.NewMem(bsize, pagefile.CostModel{})),
		}
		s, err := OpenShardedStores([]pagefile.Store{faults[0], faults[1]},
			&Config{Hash: &core.Options{Bsize: bsize, Ffactor: 8, CacheSize: 1}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		// CacheSize 1 gives each shard the smallest pool (buffer.MinBuffers
		// pages), and enough keys that neither shard's buckets fit in it,
		// so the batch below must read pages back from both stores.
		var pre []Pair
		var keys [][]byte
		for i := 0; i < 400; i++ {
			pre = append(pre, Pair{Key: []byte(fmt.Sprintf("pre-%04d", i)), Data: []byte("v")})
			keys = append(keys, pre[i].Key)
		}
		if err := s.PutBatch(pre); err != nil {
			t.Fatal(err)
		}
		batch := append([]Pair(nil), pre[:20]...)
		if counts := shardKeys(keys[:20], 2); counts[0] == 0 {
			t.Fatalf("batch does not span both shards: %v", counts)
		}
		return s, faults, batch
	}
	inject := func(f *pagefile.FaultStore) {
		f.Inject(pagefile.Fault{Op: pagefile.OpRead, After: 1, Page: pagefile.AnyPage, Err: errors.New("injected read fault")})
	}
	for _, tc := range []struct {
		name   string
		faulty []int
	}{
		{"both", []int{0, 1}},
		{"shard0", []int{0}},
		{"shard1", []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, faults, batch := open()
			for _, i := range tc.faulty {
				inject(faults[i])
			}
			err := s.PutBatch(batch)
			if err == nil {
				t.Fatal("PutBatch with injected read faults succeeded")
			}
			for i := range faults {
				named := strings.Contains(err.Error(), fmt.Sprintf("shard %d:", i))
				if want := slices.Contains(tc.faulty, i); named != want {
					t.Errorf("error names shard %d: %v, want %v: %v", i, named, want, err)
				}
			}
		})
	}
}

// BenchmarkShardedPutBatch: what a lone pair's PutBatch costs on 1, 2
// and 8 memory-resident shards. Extra shards should add nothing: a batch
// for one shard is applied on the calling goroutine.
func BenchmarkShardedPutBatch(b *testing.B) {
	for _, n := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s, pair := openLoneBatch(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.PutBatch(pair); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
