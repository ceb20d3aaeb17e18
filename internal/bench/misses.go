package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/hashfunc"
	"unixhash/internal/pagefile"
)

// Misses measures the read-acceleration layer on its target workload:
// negative lookups against buckets with overflow chains. Without the
// per-bucket tag filter, a miss is the worst read in the table — the
// whole chain must be walked to prove absence — so miss cost grows
// linearly with chain depth. With the filter, the primary page's tag
// region answers "definitely absent" and the chain is never touched, so
// a depth-4 miss should cost the same single page read as a depth-0
// miss.
//
// The experiment builds one table per chain depth d (0..4): 256
// presized buckets that never split, each loaded with the same key
// count so every bucket carries a chain of exactly d overflow pages.
// Each table is reopened with a minimum-size buffer pool — far smaller
// than the table — so a miss faults the pages it touches, and a batch
// of absent keys (uniformly spread over the buckets) is timed twice:
// filter consulted, and filter ignored (Options.DisableFilter — the
// pages are identical, the option only gates the consults).
//
// Timing follows the harness's paper methodology: user is measured wall
// time, sys is the simulated cost of the pages moved, elapsed is their
// sum.

// missesCost: 100µs per page I/O; syncs are irrelevant to a read bench.
var missesCost = Cost{Read: 100 * time.Microsecond, Write: 100 * time.Microsecond, Sync: time.Millisecond}

// missesData is the stored value: 50 bytes, so a 256-byte page holds a
// few entries and a depth-4 chain stays well inside the primary page's
// 32-tag filter capacity. (Tiny entries pack so densely that a 4-page
// chain exceeds the tag region and saturates the filter — which is the
// designed degradation for pathologically overfull buckets, not the
// regime this experiment measures.)
var missesData = bytes.Repeat([]byte("x"), 50)

const (
	missesBsize   = 256
	missesBuckets = 256  // presized power of two: bucket = hash & 255
	missesFfactor = 1000 // never reached: chain depth is the variable
	missesPerRun  = 2000
	missesDepths  = 5 // chains of 0..4 overflow pages
)

// MissesSide is one timed miss batch (filters consulted or ignored).
type MissesSide struct {
	PerMissReads  float64 `json:"per_miss_page_reads"`
	PerMissMicros float64 `json:"per_miss_micros"`
	FilterSkips   int64   `json:"filter_skips"`
	FilterFPs     int64   `json:"filter_false_positives"`
}

// MissesPoint compares the two sides at one chain depth.
type MissesPoint struct {
	Depth       int        `json:"chain_depth"`
	KeysPerBkt  int        `json:"keys_per_bucket"`
	On          MissesSide `json:"filters_on"`
	Off         MissesSide `json:"filters_off"`
	MissesRun   int        `json:"misses"`
	ReadRatio   float64    `json:"off_over_on_reads"`
	ElapsedGain float64    `json:"off_over_on_elapsed"`
}

// MissesResult is the BENCH_misses.json payload.
type MissesResult struct {
	Bsize      int           `json:"bsize"`
	Buckets    int           `json:"buckets"`
	ReadCostUS int64         `json:"read_cost_us"`
	Points     []MissesPoint `json:"points"`
	// Depth4Over0 is the gated ratio: filtered depth-4 miss cost over
	// filtered depth-0 miss cost. The filter makes deep chains free to
	// miss, so this should sit near 1.0.
	Depth4Over0 float64 `json:"depth4_over_depth0_filtered"`
}

// missesOpts returns the fixed build geometry: 256 buckets presized,
// a fill factor the load never approaches, and overflow-triggered
// splits off, so the bucket count is pinned and chain depth is purely
// a function of keys inserted per bucket.
func missesOpts(store pagefile.Store) *core.Options {
	return &core.Options{
		Bsize: missesBsize, Ffactor: missesFfactor,
		Nelem: missesBuckets * missesFfactor, ControlledOnly: true,
		Store: store,
	}
}

// missesBucketKeys partitions a deterministic key stream by bucket and
// returns perBucket keys for each of the table's buckets. All keys are
// the same length, so equal counts build identical page layouts.
func missesBucketKeys(prefix string, perBucket int) [][][]byte {
	out := make([][][]byte, missesBuckets)
	filled := 0
	for i := 0; filled < missesBuckets; i++ {
		k := []byte(fmt.Sprintf("%s%07d", prefix, i))
		b := hashfunc.Default(k) & (missesBuckets - 1)
		if len(out[b]) < perBucket {
			out[b] = append(out[b], k)
			if len(out[b]) == perBucket {
				filled++
			}
		}
	}
	return out
}

// missesThresholds discovers, on a scratch table, the key count at
// which one bucket's chain first reaches each depth 1..maxDepth.
func missesThresholds(maxDepth int) ([]int, error) {
	t, err := core.Open("", missesOpts(pagefile.NewMem(missesBsize)))
	if err != nil {
		return nil, err
	}
	defer t.Close()
	keys := missesBucketKeys("stored-", 4096/missesBuckets*8)
	thresholds := make([]int, 0, maxDepth)
	for i, k := range keys[0] {
		if err := t.Put(k, missesData); err != nil {
			return nil, err
		}
		hm, err := t.Heatmap()
		if err != nil {
			return nil, err
		}
		if d := hm.PerBucket[0].ChainPages; d > len(thresholds) {
			thresholds = append(thresholds, i+1)
			if d >= maxDepth {
				return thresholds, nil
			}
		}
	}
	return nil, fmt.Errorf("misses: key stream exhausted at thresholds %v", thresholds)
}

// missesBuild fills store with a table whose every bucket carries a
// chain of exactly depth overflow pages (perBucket keys each), and
// returns the total keys stored.
func missesBuild(store pagefile.Store, depth, perBucket int) (int, error) {
	t, err := core.Open("", missesOpts(store))
	if err != nil {
		return 0, err
	}
	defer t.Close()
	total := 0
	for _, bkeys := range missesBucketKeys("stored-", perBucket) {
		for _, k := range bkeys {
			if err := t.Put(k, missesData); err != nil {
				return 0, err
			}
			total++
		}
	}
	hm, err := t.Heatmap()
	if err != nil {
		return 0, err
	}
	if hm.Buckets != missesBuckets {
		return 0, fmt.Errorf("misses: built %d buckets, expected %d", hm.Buckets, missesBuckets)
	}
	for _, row := range hm.PerBucket {
		if row.ChainPages != depth {
			return 0, fmt.Errorf("misses: bucket %d chain is %d pages, wanted %d",
				row.Bucket, row.ChainPages, depth)
		}
	}
	return total, t.Sync()
}

// missesTime reopens store with a minimum-size pool (a table of 256+
// chains cannot stay resident, so misses fault the pages they touch)
// and times nmiss negative lookups spread uniformly over the buckets.
func missesTime(store *pagefile.MemStore, nmiss int, disableFilter bool) (MissesSide, error) {
	t, err := core.Open("", &core.Options{
		Store: store, CacheSize: missesBsize, // rounded up to the pool's 8-page floor
		DisableFilter: disableFilter,
	})
	if err != nil {
		return MissesSide{}, err
	}
	defer t.Close()
	before := store.Stats().Snapshot()
	snapBefore, err := t.MetricsSnapshot()
	if err != nil {
		return MissesSide{}, err
	}
	start := time.Now()
	for i := 0; i < nmiss; i++ {
		k := []byte(fmt.Sprintf("absent-%07d", i))
		if _, err := t.Get(k); !errors.Is(err, core.ErrNotFound) {
			if err == nil {
				return MissesSide{}, fmt.Errorf("misses: %q unexpectedly present", k)
			}
			return MissesSide{}, err
		}
	}
	user := time.Since(start)
	after := store.Stats().Snapshot()
	snapAfter, err := t.MetricsSnapshot()
	if err != nil {
		return MissesSide{}, err
	}
	io := after.Sub(before)
	elapsed := user + missesCost.Charge(io)
	return MissesSide{
		PerMissReads:  float64(io.Reads) / float64(nmiss),
		PerMissMicros: float64(elapsed.Microseconds()) / float64(nmiss),
		FilterSkips:   snapAfter.Counter(core.MetricFilterSkips) - snapBefore.Counter(core.MetricFilterSkips),
		FilterFPs:     snapAfter.Counter(core.MetricFilterFPs) - snapBefore.Counter(core.MetricFilterFPs),
	}, nil
}

// Misses runs the full experiment. nmiss is the negative lookups per
// timed batch (0 = the default 2000).
func Misses(nmiss int) (*MissesResult, error) {
	if nmiss <= 0 {
		nmiss = missesPerRun
	}
	thresholds, err := missesThresholds(missesDepths - 1)
	if err != nil {
		return nil, err
	}
	res := &MissesResult{
		Bsize: missesBsize, Buckets: missesBuckets,
		ReadCostUS: missesCost.Read.Microseconds(),
	}
	for depth := 0; depth < missesDepths; depth++ {
		// Depth 0 loads the primary to the brink of overflow; depth d
		// stops at the key that first opened overflow page d.
		perBucket := thresholds[0] - 1
		if depth > 0 {
			perBucket = thresholds[depth-1]
		}
		store := pagefile.NewMem(missesBsize)
		if _, err := missesBuild(store, depth, perBucket); err != nil {
			return nil, fmt.Errorf("depth %d: %w", depth, err)
		}
		on, err := missesTime(store, nmiss, false)
		if err != nil {
			return nil, fmt.Errorf("depth %d filters on: %w", depth, err)
		}
		off, err := missesTime(store, nmiss, true)
		if err != nil {
			return nil, fmt.Errorf("depth %d filters off: %w", depth, err)
		}
		pt := MissesPoint{Depth: depth, KeysPerBkt: perBucket, On: on, Off: off, MissesRun: nmiss}
		if on.PerMissReads > 0 {
			pt.ReadRatio = off.PerMissReads / on.PerMissReads
		}
		if on.PerMissMicros > 0 {
			pt.ElapsedGain = off.PerMissMicros / on.PerMissMicros
		}
		res.Points = append(res.Points, pt)
	}
	if d0, d4 := res.Points[0].On, res.Points[missesDepths-1].On; d0.PerMissMicros > 0 {
		res.Depth4Over0 = d4.PerMissMicros / d0.PerMissMicros
	}
	return res, nil
}

// Gate enforces the CI regression bar: with filters on, a depth-4
// negative lookup must cost no more than maxRatio times a depth-0 one
// (the filter's whole point is making chain depth irrelevant to
// misses).
func (r *MissesResult) Gate(maxRatio float64) error {
	if len(r.Points) < missesDepths {
		return fmt.Errorf("misses: only %d points measured", len(r.Points))
	}
	if r.Depth4Over0 > maxRatio {
		return fmt.Errorf("misses: filtered depth-4 miss costs %.2fx a depth-0 miss, above the %.2fx ceiling",
			r.Depth4Over0, maxRatio)
	}
	return nil
}

// JSON renders the machine-readable BENCH_misses.json payload.
func (r *MissesResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders a human-readable table in the style of the other
// hashbench experiments.
func (r *MissesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Negative lookups vs overflow-chain depth: %d buckets, %d-byte pages, %dus/page read\n",
		r.Buckets, r.Bsize, r.ReadCostUS)
	fmt.Fprintf(&b, "(reads and elapsed are per miss)\n\n")
	fmt.Fprintf(&b, "  %-6s %-9s %14s %12s %14s %12s %8s\n",
		"depth", "keys/bkt", "on reads/miss", "on us/miss", "off reads/miss", "off us/miss", "off/on")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "  %-6d %-9d %14.2f %12.1f %14.2f %12.1f %7.1fx\n",
			pt.Depth, pt.KeysPerBkt, pt.On.PerMissReads, pt.On.PerMissMicros,
			pt.Off.PerMissReads, pt.Off.PerMissMicros, pt.ElapsedGain)
	}
	fmt.Fprintf(&b, "\n  filtered depth-4/depth-0 cost ratio: %.2fx\n", r.Depth4Over0)
	return b.String()
}
