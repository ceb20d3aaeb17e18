package db

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/wal"
)

// TestStatsUniform: every DB shape answers Stats() with the common
// fields filled in and the table detail non-nil — the replacement for
// reaching through the adapter with a type assertion.
func TestStatsUniform(t *testing.T) {
	for _, im := range implementors {
		t.Run(im.name, func(t *testing.T) {
			d, err := im.open("")
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			const n = 100
			for i := 0; i < n; i++ {
				if err := d.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				if _, err := d.Get([]byte(fmt.Sprintf("key-%03d", i))); err != nil {
					t.Fatal(err)
				}
			}

			s, err := d.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if s.Method != Hash {
				t.Errorf("Method = %v, want %v", s.Method, Hash)
			}
			if s.Keys != n {
				t.Errorf("Keys = %d, want %d", s.Keys, n)
			}
			if s.Hash == nil {
				t.Fatalf("want the table detail, got %+v", s)
			}
			if s.Hash.Gets != n || s.Hash.Puts != n {
				t.Errorf("hash ops = %d gets / %d puts, want %d / %d",
					s.Hash.Gets, s.Hash.Puts, n, n)
			}
			if s.Pages == 0 || s.PageSize == 0 {
				t.Errorf("pages = %d x %d, want nonzero", s.Pages, s.PageSize)
			}
			if s.CacheHits == 0 || s.CacheHitRatio <= 0 {
				t.Errorf("cache hits = %d ratio %.2f, want hot-page hits",
					s.CacheHits, s.CacheHitRatio)
			}
			if s.Hash.Buckets == 0 {
				t.Error("hash Buckets = 0")
			}
		})
	}
}

// TestFilterHitRateMatchesHeatmap: Stats' FilterHitRate and the
// heatmap's FilterSkipRate are both skips over all filter consults, so
// on a quiesced table they are the same number, and a single table's
// heatmap summary names Stats' longest chain. Every key is read once
// beside one absent key; the absent keys that pass the filter are its
// false positives, and the rate must count them as consults.
func TestFilterHitRateMatchesHeatmap(t *testing.T) {
	for _, im := range implementors {
		t.Run(im.name, func(t *testing.T) {
			d, err := im.open("")
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			const n = 20000
			pairs := make([]Pair, n)
			for i := range pairs {
				pairs[i] = Pair{Key: []byte(fmt.Sprintf("key-%05d", i)), Data: []byte("v")}
			}
			if err := d.PutBatch(pairs); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := d.Get([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Get([]byte(fmt.Sprintf("absent-%05d", i))); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get absent = %v", err)
				}
			}

			s, err := d.Stats()
			if err != nil {
				t.Fatal(err)
			}
			// A sharded database's shards count into one registry, so any
			// shard's heatmap carries the database-wide filter counters.
			var tbl *core.Table
			switch d := d.(type) {
			case *hashDB:
				tbl = d.table()
			case *Sharded:
				tbl = d.shards[0].table()
			}
			h, err := tbl.Heatmap()
			if err != nil {
				t.Fatal(err)
			}
			if h.FilterFPs == 0 {
				t.Fatalf("no filter false positives in %d absent-key reads: the rates cannot disagree", n)
			}
			if s.Hash.FilterHitRate != h.FilterSkipRate {
				t.Fatalf("Stats FilterHitRate = %.4f, heatmap FilterSkipRate = %.4f (skips %d, hits %d, false positives %d)",
					s.Hash.FilterHitRate, h.FilterSkipRate, h.FilterSkips, h.FilterHits, h.FilterFPs)
			}
			// The heatmap summary counts its longest chain in Stats' unit:
			// pages, the primary included.
			if _, single := d.(*hashDB); single {
				want := fmt.Sprintf("maxchain=%d pages", s.Hash.MaxChain)
				if !strings.Contains(h.String(), want) {
					t.Fatalf("heatmap summary %q lacks %q (Stats.Hash.MaxChain)", h.String(), want)
				}
			}
		})
	}
}

// TestStatsClosed: Stats on a closed DB propagates ErrClosed instead of
// inventing a stale answer.
func TestStatsClosed(t *testing.T) {
	for _, im := range implementors {
		t.Run(im.name, func(t *testing.T) {
			d, err := im.open("")
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Stats(); err == nil {
				t.Fatal("Stats on closed DB succeeded, want error")
			}
		})
	}
}

// parkSyncDev is a log device whose next Sync, once armed, announces
// itself on parked and waits for release.
type parkSyncDev struct {
	*wal.MemDevice
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (d *parkSyncDev) Sync() error {
	if d.armed.CompareAndSwap(true, false) {
		close(d.parked)
		<-d.release
	}
	return d.MemDevice.Sync()
}

// TestStatsBesideParkedCommit: a commit waiting in fsync holds the table
// lock shared. A Stats issued meanwhile, and a Get after it, must both
// return: a Stats that took the lock exclusively would queue behind the
// commit, and every reader behind the Stats.
func TestStatsBesideParkedCommit(t *testing.T) {
	dev := &parkSyncDev{MemDevice: wal.NewMemDevice(), parked: make(chan struct{}), release: make(chan struct{})}
	d, err := Open("", Hash, &Config{Hash: &core.Options{WALDevice: dev}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	x, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Put([]byte("t"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	dev.armed.Store(true)
	committed := make(chan error, 1)
	go func() { committed <- x.Commit() }()
	<-dev.parked

	looked := make(chan error, 1)
	go func() {
		if _, err := d.Stats(); err != nil {
			looked <- fmt.Errorf("Stats: %w", err)
			return
		}
		_, err := d.Get([]byte("k"))
		looked <- err
	}()
	select {
	case err := <-looked:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Stats and a Get beside a commit parked in fsync did not return within 2s")
	}
	close(dev.release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
}

// TestStatsBesideSplits runs db.Stats and the table's Heatmap in a loop
// beside writers that force splits, chain growth and big-pair pages.
// Every walk must stay self-consistent while the table changes under it:
// each bucket counted once in the chain distribution, and the overflow
// page total equal to the one the distribution implies.
func TestStatsBesideSplits(t *testing.T) {
	d, err := Open("", Hash, &Config{Hash: &core.Options{Bsize: 256, Ffactor: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl := d.(*hashDB).table()

	const writers, perWriter = 2, 3000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := []byte("value")
				if i%500 == 0 {
					v = make([]byte, 1000) // a big pair on 256-byte pages
				}
				if err := d.Put([]byte(fmt.Sprintf("w%d-%05d", w, i)), v); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	check := func(what string, buckets uint32, ovfl int, dist []int) error {
		sum, implied := 0, 0
		for i, n := range dist {
			sum += n
			implied += i * n
		}
		if sum != int(buckets) || implied != ovfl {
			return fmt.Errorf("%s: chain distribution %v sums to %d buckets of %d and implies %d overflow pages, reported %d",
				what, dist, sum, buckets, implied, ovfl)
		}
		return nil
	}
	walk := func() error {
		s, err := d.Stats()
		if err != nil {
			return err
		}
		if err := check("Stats", s.Hash.Buckets, s.Hash.OverflowPages, s.Hash.ChainDist); err != nil {
			return err
		}
		h, err := tbl.Heatmap()
		if err != nil {
			return err
		}
		return check("Heatmap", h.Buckets, h.OverflowPages, h.ChainDist)
	}
	walks := 0
	for running := true; running; walks++ {
		select {
		case <-done:
			running = false
		default:
		}
		if err := walk(); err != nil {
			t.Error(err)
			break
		}
	}
	<-done
	t.Logf("%d walks beside the writers", walks)
	if s, err := d.Stats(); err != nil || s.Keys != writers*perWriter || s.Hash.SplitsControlled+s.Hash.SplitsUncontrolled == 0 {
		t.Fatalf("after %d walks: Stats = %+v, %v; want %d keys and some splits", walks, s.Hash, err, writers*perWriter)
	}
}

// TestOpenBadOptions: Open rejects out-of-range options up front with
// ErrBadOptions naming the offending field, instead of silently
// clamping them.
func TestOpenBadOptions(t *testing.T) {
	cases := []struct {
		name  string
		m     Method
		cfg   *Config
		field string
	}{
		{"hash bsize not power of two", Hash,
			&Config{Hash: &core.Options{Bsize: 300}}, "Bsize"},
		{"hash negative ffactor", Hash,
			&Config{Hash: &core.Options{Ffactor: -1}}, "Ffactor"},
		{"hash negative nelem", Hash,
			&Config{Hash: &core.Options{Nelem: -5}}, "Nelem"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Open("", tc.m, tc.cfg)
			if err == nil {
				d.Close()
				t.Fatal("Open succeeded with invalid options")
			}
			if !errors.Is(err, ErrBadOptions) {
				t.Fatalf("err = %v, want ErrBadOptions", err)
			}
			if !containsField(err.Error(), tc.field) {
				t.Errorf("error %q does not name field %q", err, tc.field)
			}
		})
	}

	// Zero values mean "use the default" and always validate.
	d, err := Open("", Hash, &Config{Hash: &core.Options{}})
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	d.Close()
}

func containsField(s, field string) bool {
	for i := 0; i+len(field) <= len(s); i++ {
		if s[i:i+len(field)] == field {
			return true
		}
	}
	return false
}
