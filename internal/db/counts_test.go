package db

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"unixhash/internal/core"
	"unixhash/internal/metrics"
	"unixhash/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// seriesNames renders every series of reg as "name type", sorted: the
// # TYPE lines of its exposition.
func seriesNames(t *testing.T, reg *metrics.Registry) []byte {
	t.Helper()
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(prom.String(), "\n") {
		if rest, ok := strings.CutPrefix(l, "# TYPE "); ok {
			lines = append(lines, rest)
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// TestSeriesNamesGolden: the names and types of every series a logged,
// traced single table and a 2-shard database publish are the ones in
// testdata, so a renamed, dropped or retyped series fails here.
func TestSeriesNamesGolden(t *testing.T) {
	work := func(t *testing.T, d DB) {
		for i := 0; i < 300; i++ {
			if err := d.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		x, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		x.Put([]byte("txn"), []byte("v"))
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		file string
		open func(*core.Options) (DB, *metrics.Registry, error)
	}{
		{"series_table.golden", func(o *core.Options) (DB, *metrics.Registry, error) {
			d, err := Open("", Hash, &Config{Hash: o})
			if err != nil {
				return nil, nil, err
			}
			return d, d.(*hashDB).Table.MetricsRegistry(), nil
		}},
		{"series_sharded.golden", func(o *core.Options) (DB, *metrics.Registry, error) {
			s, err := OpenSharded("", 2, &Config{Hash: o})
			if err != nil {
				return nil, nil, err
			}
			return s, s.MetricsRegistry(), nil
		}},
	} {
		t.Run(c.file, func(t *testing.T) {
			d, reg, err := c.open(&core.Options{Bsize: 256, Ffactor: 8, WAL: true, Trace: trace.New(0)})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			work(t, d)
			got := seriesNames(t, reg)
			path := filepath.Join("testdata", c.file)
			if *update {
				if err := os.WriteFile(path, got, 0o666); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("series of %s:\n%s\nwant (testdata/%s):\n%s", c.file, got, c.file, want)
			}
		})
	}
}

// TestShardedShapeGauges: hash_keys and hash_buckets on a sharded
// database's one registry are the database's key count and the sum of
// its shards' buckets, not the figures of whichever shard wrote last.
func TestShardedShapeGauges(t *testing.T) {
	s, err := OpenSharded("", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var buckets int64
	for _, sh := range st.Shards {
		buckets += int64(sh.Hash.Buckets)
	}
	snap := s.MetricsRegistry().Snapshot()
	if got := snap.Gauge(core.MetricKeys); got != int64(s.Len()) {
		t.Errorf("%s = %d, want Len() = %d", core.MetricKeys, got, s.Len())
	}
	if got := snap.Gauge(core.MetricBuckets); got != buckets || buckets != int64(st.Hash.Buckets) {
		t.Errorf("%s = %d, want the shards' %d buckets (aggregate %d)", core.MetricBuckets, got, buckets, st.Hash.Buckets)
	}
}

// shardCounts is one Stats entry's operation counters, by name.
func shardCounts(h *HashStats) map[string]int64 {
	return map[string]int64{
		"Gets": h.Gets, "GetMisses": h.GetMisses, "Puts": h.Puts, "Deletes": h.Deletes,
		"SplitsControlled": h.SplitsControlled, "SplitsUncontrolled": h.SplitsUncontrolled,
		"OvflAllocs": h.OvflAllocs, "OvflFrees": h.OvflFrees, "Syncs": h.Syncs,
		"FilterHits": h.FilterHits, "FilterSkips": h.FilterSkips,
		"FilterFalsePositives": h.FilterFalsePositives,
	}
}

// checkShardSums fails unless every counter of st's shards sums to the
// aggregate's, and every shard's heatmap filter counts to Stats'.
func checkShardSums(t *testing.T, s *Sharded, st Stats) {
	t.Helper()
	sum := map[string]int64{}
	for _, sh := range st.Shards {
		for k, v := range shardCounts(sh.Hash) {
			sum[k] += v
		}
	}
	for k, v := range shardCounts(st.Hash) {
		if sum[k] != v {
			t.Errorf("shards' %s sum to %d, aggregate %d", k, sum[k], v)
		}
	}
	var skips, hits, fps int64
	for i, sh := range s.shards {
		hm, err := sh.Table.Heatmap()
		if err != nil {
			t.Fatal(err)
		}
		if g := st.Shards[i].Hash; hm.FilterSkips != g.FilterSkips || hm.FilterHits != g.FilterHits || hm.FilterFPs != g.FilterFalsePositives {
			t.Errorf("shard %d heatmap filter %d/%d/%d, Stats %d/%d/%d", i,
				hm.FilterSkips, hm.FilterHits, hm.FilterFPs, g.FilterSkips, g.FilterHits, g.FilterFalsePositives)
		}
		skips, hits, fps = skips+hm.FilterSkips, hits+hm.FilterHits, fps+hm.FilterFPs
	}
	if h := st.Hash; skips != h.FilterSkips || hits != h.FilterHits || fps != h.FilterFalsePositives {
		t.Errorf("heatmaps' filter counts %d/%d/%d, aggregate %d/%d/%d", skips, hits, fps, h.FilterSkips, h.FilterHits, h.FilterFalsePositives)
	}
}

// TestShardedStatsPerShardCounts: each entry of a sharded database's
// Stats.Shards carries that shard's own operation counts, so they sum
// to the aggregate, and each shard's heatmap reads the same counts.
func TestShardedStatsPerShardCounts(t *testing.T) {
	s, err := OpenSharded("", 4, &Config{Hash: &core.Options{Bsize: 256, Ffactor: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := bytes.Repeat([]byte{'B'}, 1000)
	for i := 0; i < 5000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		k := []byte(fmt.Sprintf("big-%d", i))
		if err := s.Put(k, big); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		s.Get([]byte(fmt.Sprintf("key-%05d", i)))
		s.Get([]byte(fmt.Sprintf("absent-%05d", i)))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if h := st.Hash; h.Puts != 5008 || h.Gets != 4000 || h.Deletes != 8 || h.OvflAllocs == 0 || h.OvflFrees == 0 ||
		h.SplitsControlled+h.SplitsUncontrolled == 0 || h.FilterSkips == 0 {
		t.Fatalf("aggregate counts %+v do not reflect the workload", *h)
	}
	checkShardSums(t, s, st)
}

// TestShardedCountsUnderScrape is the -race stress for the per-table
// counters: four writers over four shards while a scraper renders the
// registry and Stats in a loop. Afterwards hash_puts_total is the pairs
// written, the shards' counts sum to the aggregate, and hash_keys is
// Len().
func TestShardedCountsUnderScrape(t *testing.T) {
	const writers, perWriter = 4, 1500
	s, err := OpenSharded("", 4, &Config{Hash: &core.Options{Bsize: 256, Ffactor: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		scr  sync.WaitGroup
	)
	scr.Add(1)
	go func() {
		defer scr.Done()
		var b bytes.Buffer
		for !stop.Load() {
			b.Reset()
			if err := s.MetricsRegistry().WriteProm(&b); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Stats(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%05d", w, i))
				if err := s.Put(k, []byte("value")); err != nil {
					t.Error(err)
					return
				}
				s.Get(k)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	scr.Wait()

	snap := s.MetricsRegistry().Snapshot()
	if got := snap.Counter(core.MetricPuts); got != writers*perWriter {
		t.Errorf("%s = %d, want %d", core.MetricPuts, got, writers*perWriter)
	}
	if got := snap.Gauge(core.MetricKeys); got != int64(s.Len()) {
		t.Errorf("%s = %d, want Len() = %d", core.MetricKeys, got, s.Len())
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	checkShardSums(t, s, st)
}
