// Package metrics is the hashing package's observability substrate: a
// lightweight, allocation-free registry of atomic counters, gauges and
// latency histograms that every layer (core table, buffer pool, page
// store, recovery) threads its instrumentation through.
//
// The design rules, in priority order:
//
//   - Hot-path updates are one padded atomic add — no locks, no maps, no
//     allocation. Callers resolve a *Counter (or *Gauge, *Histogram) once
//     at open time and keep the pointer.
//   - Reads never block writers: Snapshot and WriteProm load counters
//     atomically without stopping the world, so a scrape observes a
//     near-point-in-time state while operations continue.
//   - Names are stable, Prometheus-style identifiers ("hash_gets_total",
//     "pagefile_sync_seconds"), so the text dump is scrapable as-is.
//
// A name registered twice is one series. Counter, Gauge and Histogram
// return the one shared handle: Adds and Observes from every caller
// aggregate, but a shared Gauge's Set is last-writer-wins, so it holds
// one component's value, not the sum. Per-component values register
// func-backed metrics (CounterFunc, GaugeFunc) or AddHistogram instead,
// which collect every registration and sum them at read time. That is
// what lets N sharded tables — each registering views over its own
// counts, key count, buffer pool, page store and log — publish under
// one registry (one /metrics page) without clobbering or double counting
// each other.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. It is padded to its own
// cache line so counters resolved into adjacent struct fields do not
// false-share under concurrent readers.
type Counter struct {
	v atomic.Int64
	_ [56]byte // pad to 64 bytes: v (8) + 56
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (keys in a table, resident
// buffers). Same padding rationale as Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram buckets: powers of two of microseconds, from 1us up to
// ~8.6s, plus a final overflow bucket. Bucket i counts observations with
// d <= 1us<<i; index nBuckets-1 collects everything larger.
const (
	nBuckets   = 24
	bucketUnit = time.Microsecond
)

// Histogram is a fixed-bucket latency histogram. Observe is one atomic
// add on the bucket plus two on count/sum; buckets share cache lines
// (latency observations sit on I/O paths, where nanoseconds of false
// sharing are noise next to the operation being timed).
type Histogram struct {
	buckets [nBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	if d <= bucketUnit {
		return 0
	}
	// Index of the highest set bit of ceil(d / 1us).
	us := uint64((d + bucketUnit - 1) / bucketUnit)
	i := bits.Len64(us - 1) // smallest i with 1<<i >= us
	if i >= nBuckets {
		return nBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i; the last
// bucket's bound is reported as -1 (+Inf).
func BucketBound(i int) time.Duration {
	if i >= nBuckets-1 {
		return -1
	}
	return bucketUnit << i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, BucketCount{Bound: BucketBound(i), Count: n})
	}
	return s
}

// BucketCount is one non-empty histogram bucket: observations with
// latency <= Bound (Bound < 0 means +Inf).
type BucketCount struct {
	Bound time.Duration `json:"bound_ns"`
	Count int64         `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Only
// non-empty buckets are materialized.
type HistogramSnapshot struct {
	Count    int64         `json:"count"`
	SumNanos int64         `json:"sum_ns"`
	Buckets  []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the average observed duration (0 with no observations).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// metricKind tags a registry entry for the text dump.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

type entry struct {
	name string
	kind metricKind
	help string
	c    *Counter
	g    *Gauge
	// Func-backed kinds collect every registration under the name and
	// sum them at read time, so N components (e.g. sharded tables) each
	// exporting their own collector aggregate into one series.
	fns []func() int64
	// Histograms likewise: Histogram() hands out one shared handle, but
	// AddHistogram may attach several component-owned histograms that
	// are merged bucket-wise on snapshot and exposition.
	hs []*Histogram
}

// helpText returns the entry's HELP line body: the curated text when one
// was set, else a readable default derived from the name. Newlines and
// backslashes are escaped per the exposition format.
func (e *entry) helpText() string {
	h := e.help
	if h == "" {
		h = strings.ReplaceAll(e.name, "_", " ")
	}
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func (e *entry) value() int64 {
	switch e.kind {
	case kindCounter:
		return e.c.Load()
	case kindGauge:
		return e.g.Load()
	case kindCounterFunc, kindGaugeFunc:
		var v int64
		for _, fn := range e.fns {
			v += fn()
		}
		return v
	}
	return 0
}

// histSnapshot merges the entry's histograms into one snapshot.
func (e *entry) histSnapshot() HistogramSnapshot {
	if len(e.hs) == 1 {
		return e.hs[0].Snapshot()
	}
	var s HistogramSnapshot
	var buckets [nBuckets]int64
	for _, h := range e.hs {
		s.Count += h.count.Load()
		s.SumNanos += h.sum.Load()
		for i := range h.buckets {
			buckets[i] += h.buckets[i].Load()
		}
	}
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, BucketCount{Bound: BucketBound(i), Count: n})
	}
	return s
}

// Registry is an ordered, deduplicating collection of named metrics.
// Registration takes a lock and may allocate; it happens at open time.
// The registered metrics themselves are lock-free.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
	help    map[string]string // curated HELP by name, registered or not
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*entry), help: make(map[string]string)}
}

// register adds e under its name, or returns the existing entry. A name
// reused with a different metric kind panics: that is a programming
// error, not a runtime condition.
func (r *Registry) register(name string, kind metricKind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q reregistered as a different kind", name))
		}
		return e
	}
	e := &entry{name: name, kind: kind, help: r.help[name]}
	r.byName[name] = e
	r.entries = append(r.entries, e)
	return e
}

// Help attaches a HELP description to the metric called name, emitted
// by WriteProm. It may come before or after the name's registration;
// metrics without curated help get a default derived from their name, so
// the dump always carries a HELP line per series.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
	if e, ok := r.byName[name]; ok {
		e.help = help
	}
}

// Counter registers (or finds) the counter called name.
func (r *Registry) Counter(name string) *Counter {
	e := r.register(name, kindCounter)
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge registers (or finds) the gauge called name. Every caller gets
// the same handle, so Set is last-writer-wins: a value each component
// owns (keys per table) registers a GaugeFunc per component instead.
func (r *Registry) Gauge(name string) *Gauge {
	e := r.register(name, kindGauge)
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// CounterFunc registers a counter whose value is computed by fn at read
// time (for components that maintain their own counters, e.g. per-shard
// tallies summed on scrape). Registering the same name again adds fn to
// the series: reads report the sum of every registered collector, so N
// tables sharing a registry aggregate instead of shadowing each other.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	e := r.register(name, kindCounterFunc)
	e.fns = append(e.fns, fn)
}

// GaugeFunc registers a computed gauge; like CounterFunc, repeated
// registrations under one name are summed at read time.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	e := r.register(name, kindGaugeFunc)
	e.fns = append(e.fns, fn)
}

// Histogram registers (or finds) the latency histogram called name. All
// callers receive the same handle, so their observations aggregate.
func (r *Registry) Histogram(name string) *Histogram {
	e := r.register(name, kindHistogram)
	if len(e.hs) == 0 {
		e.hs = append(e.hs, &Histogram{})
	}
	return e.hs[0]
}

// AddHistogram registers an existing histogram under name, for components
// that own their histogram (e.g. a page store's latency tracking) and
// want it exported. Attaching a second distinct histogram to the same
// name merges them: snapshots and the text exposition report bucket-wise
// sums, so per-shard stores publish one combined latency series. The
// histogram handed in is returned (registering the same one twice is a
// no-op).
func (r *Registry) AddHistogram(name string, h *Histogram) *Histogram {
	e := r.register(name, kindHistogram)
	for _, have := range e.hs {
		if have == h {
			return h
		}
	}
	e.hs = append(e.hs, h)
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry,
// usable directly in tests and serializable as JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Counter returns a counter's value (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Snapshot captures every registered metric. Counters are loaded
// atomically; the snapshot as a whole is near-point-in-time (operations
// may land between loads), but each counter value is itself consistent
// and monotonic across successive snapshots.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, e := range entries {
		switch e.kind {
		case kindCounter, kindCounterFunc:
			s.Counters[e.name] = e.value()
		case kindGauge, kindGaugeFunc:
			s.Gauges[e.name] = e.value()
		case kindHistogram:
			s.Histograms[e.name] = e.histSnapshot()
		}
	}
	return s
}

// WriteProm renders the registry in the Prometheus text exposition
// format (the expvar-era "just scrape text" contract): each series gets
// a # HELP and # TYPE line, and histograms emit cumulative _bucket
// series ending in le="+Inf" plus _sum and _count, with bucket bounds
// in seconds.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	for _, e := range entries {
		var err error
		switch e.kind {
		case kindCounter, kindCounterFunc:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				e.name, e.helpText(), e.name, e.name, e.value())
		case kindGauge, kindGaugeFunc:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				e.name, e.helpText(), e.name, e.name, e.value())
		case kindHistogram:
			err = writePromHistogram(w, e.name, e.helpText(), e.hs)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name, help string, hs []*Histogram) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	cum, count, sum := int64(0), int64(0), time.Duration(0)
	for _, h := range hs {
		count += h.Count()
		sum += h.Sum()
	}
	for i := 0; i < nBuckets; i++ {
		n := int64(0)
		for _, h := range hs {
			n += h.buckets[i].Load()
		}
		cum += n
		if n == 0 && i < nBuckets-1 {
			continue // keep the dump short: only materialized buckets
		}
		le := "+Inf"
		if b := BucketBound(i); b >= 0 {
			le = fmt.Sprintf("%g", b.Seconds())
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n",
		name, sum.Seconds(), name, count)
	return err
}
