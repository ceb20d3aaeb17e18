package db

import (
	"fmt"
	"sync"
	"testing"

	"unixhash/internal/core"
)

// BenchmarkBulkLoad is benchmark/'s preload in process: a logged 2-shard
// database on a fresh directory at 4096-byte pages and fill factor 24,
// loaded with 200 000 "key-%09d" keys and 100-byte values by two
// goroutines, each sending 100 PutBatch calls of 1 000 pairs. One
// iteration is one load; opening and closing the directory are not
// timed. "cache=64MiB" keeps every page resident, as read_cached does;
// "cache=default" runs on the 64 KiB pool, where the load evicts.
func BenchmarkBulkLoad(b *testing.B) {
	const (
		loaders  = 2
		batches  = 100
		perBatch = 1000
		valueLen = 100
	)
	// The pairs are built once: the load, not the formatting, is timed.
	load := make([][][]Pair, loaders)
	for g := range load {
		load[g] = make([][]Pair, batches)
		for i := range load[g] {
			batch := make([]Pair, perBatch)
			for j := range batch {
				id := (g*batches+i)*perBatch + j
				val := make([]byte, valueLen)
				for k := range val {
					val[k] = byte(id + k)
				}
				batch[j] = Pair{Key: []byte(fmt.Sprintf("key-%09d", id)), Data: val}
			}
			load[g][i] = batch
		}
	}
	for _, bc := range []struct {
		name  string
		cache int
	}{{"cache=64MiB", 64 << 20}, {"cache=default", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := OpenSharded(b.TempDir(), 2, &Config{Hash: &core.Options{
					Bsize: 4096, Ffactor: 24, CacheSize: bc.cache, WAL: true,
				}})
				if err != nil {
					b.Fatal(err)
				}
				errs := make([]error, loaders)
				var wg sync.WaitGroup
				b.StartTimer()
				for g := range load {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for _, batch := range load[g] {
							if errs[g] = s.PutBatch(batch); errs[g] != nil {
								return
							}
						}
					}(g)
				}
				wg.Wait()
				b.StopTimer()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				if n := s.Len(); n != loaders*batches*perBatch {
					b.Fatalf("loaded %d keys, want %d", n, loaders*batches*perBatch)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
