// Package buffer implements the hashing package's buffer manager: an LRU
// pool of page buffers over a pagefile.Store, as described in the paper's
// "Buffer Management" section, rebuilt for concurrent readers.
//
// The pool is split into N lock-striped shards. A page's shard is chosen
// by hashing the *bucket that owns it*: a primary page is owned by its own
// bucket number, and an overflow page is owned by the bucket whose chain
// it extends. Placing a whole chain in one shard preserves the paper's
// invariant — an overflow buffer is evicted together with its predecessor
// — with a single shard lock, and lets unrelated buckets fault, hit and
// evict pages in parallel.
//
// Primary pages are addressed by bucket number; overflow pages by their
// 16-bit overflow address. When an overflow page is fetched through its
// predecessor page, the two buffer headers record the link in both
// directions (ovfl forward, pred back), and evicting a buffer evicts the
// overflow buffers chained behind it — the paper's invariant that an
// overflow page is resident only while its predecessor is. The back link
// makes an eviction cost its chain and nothing else: a cold suffix whose
// predecessor stays hot is cut loose through its one pred. Iterators and
// tools fetch overflow pages unlinked with GetOwned, naming the owning
// bucket so the fetch lands in the chain's shard. The buffer budget is
// pool-wide: a miss evicts from its own shard only once the whole pool
// is at capacity, so a skewed bucket distribution cannot strand capacity
// in cold shards. If the faulting
// shard has nothing evictable (everything pinned, or the pressure comes
// from hotter shards), it temporarily overcommits rather than failing,
// so arbitrarily long overflow chains work with small pools.
//
// Concurrency contract: all Pool methods are safe for concurrent use.
// Pin counts and Dirty flags are atomic; within a shard, the map, the
// LRU list and the chain links are guarded by the shard mutex. Page
// contents are NOT guarded by the pool — the owning table must ensure
// that a page is never written while another goroutine reads it (the
// hash table does so with per-bucket latches under its reader/writer
// table lock). The lock order is always table lock → bucket latch →
// shard lock; the pool never takes two shard locks at once.
package buffer

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
)

// Addr identifies a logical page: either a primary page (bucket number)
// or an overflow page (16-bit overflow address).
type Addr struct {
	N    uint32
	Ovfl bool
}

func (a Addr) String() string {
	if a.Ovfl {
		return fmt.Sprintf("ovfl %d/%d", a.N>>11, a.N&0x7ff)
	}
	return fmt.Sprintf("bucket %d", a.N)
}

// Buf is a buffer header: one page-sized buffer plus bookkeeping. The
// caller owns the Page contents while the buffer is pinned. Dirty may only
// be set by a caller that has exclusive use of the page (the table's
// bucket latch); concurrent readers must treat Page as read-only. Dirty
// is atomic so the flush paths can observe it without the page owner's
// latch.
type Buf struct {
	Addr  Addr
	Page  []byte
	Dirty atomic.Bool

	pins  atomic.Int32
	owner uint32 // bucket whose chain this page belongs to (shard key)
	sh    *shard
	ovfl  *Buf // resident successor overflow buffer, if any
	pred  *Buf // the one buffer whose ovfl is this buffer, if any
	prev  *Buf // shard LRU list
	next  *Buf
}

// Pin marks the buffer in-use; a pinned buffer (and any chain containing
// it) cannot be evicted. Pins nest.
func (b *Buf) Pin() { b.pins.Add(1) }

// Unpin releases one pin.
func (b *Buf) Unpin() {
	if b.pins.Add(-1) < 0 {
		panic("buffer: unpin of unpinned buffer " + b.Addr.String())
	}
}

// Pinned reports whether the buffer is currently pinned.
func (b *Buf) Pinned() bool { return b.pins.Load() > 0 }

// Ovfl returns the resident successor overflow buffer, or nil.
func (b *Buf) Ovfl() *Buf { return b.ovfl }

// Owner returns the bucket that owns this page (its shard key).
func (b *Buf) Owner() uint32 { return b.owner }

// MapFunc translates a logical address into a physical page number in the
// store. The hash table supplies BUCKET_TO_PAGE / OADDR_TO_PAGE here.
type MapFunc func(Addr) uint32

// LoadFunc is called under the shard lock after a page is faulted in
// (whether read from the store or freshly created). It may initialize the
// page in place; returning true marks the buffer dirty. It runs exactly
// once per residency, so concurrent readers never race to format a page.
type LoadFunc func(Addr, []byte) bool

// Config carries optional pool parameters to NewConfig.
type Config struct {
	// Shards is the number of lock-striped shards; 0 picks a default.
	// The count is clamped so every shard holds at least MinBuffers
	// pages, and rounded down to a power of two.
	Shards int
	// OnLoad, if non-nil, post-processes every faulted-in page.
	OnLoad LoadFunc
	// OnEvict, if non-nil, observes every buffer evicted to make room
	// (not invalidations or drops): the evicted address and whether the
	// page was dirty (had to be written back) when chosen. It runs under
	// the shard lock and must not re-enter the pool.
	OnEvict func(Addr, bool)
}

// PoolCounters is the pool's event accounting. The counters are kept
// per shard — the hot path updates them as plain increments under the
// shard lock it already holds, so unrelated shards never contend or
// false-share on a counter cache line — and summed on read.
type PoolCounters struct {
	Hits        int64 // Get found the page resident
	Misses      int64 // Get faulted the page in
	Evictions   int64 // buffers evicted to make room
	NewPages    int64 // pages created fresh (not read from the store)
	Overcommits int64 // misses served beyond budget (nothing evictable)
	Pins        int64 // pin events (one per successful Get)
	Prefetched  int64 // pages installed by chain read-ahead
}

// Sub returns the component-wise difference c - o, for measuring one
// phase of a workload.
func (c PoolCounters) Sub(o PoolCounters) PoolCounters {
	return PoolCounters{
		Hits: c.Hits - o.Hits, Misses: c.Misses - o.Misses,
		Evictions: c.Evictions - o.Evictions, NewPages: c.NewPages - o.NewPages,
		Overcommits: c.Overcommits - o.Overcommits, Pins: c.Pins - o.Pins,
		Prefetched: c.Prefetched - o.Prefetched,
	}
}

// shard is one lock stripe of the pool: a private hash table, LRU list
// and free list over a slice of the buffer budget.
type shard struct {
	mu    sync.Mutex
	table map[Addr]*Buf
	lru   Buf          // sentinel: lru.next is most recent, lru.prev least recent
	free  []*Buf       // evicted buffers kept for reuse, as in the C package
	max   int          // this shard's slice of the budget (bounds the free list)
	n     PoolCounters // this stripe's slice of the event counters
}

// Pool is a sharded LRU buffer pool, safe for concurrent use.
type Pool struct {
	store      pagefile.Store
	mapAddr    MapFunc
	onLoad     LoadFunc
	onEvict    func(Addr, bool)
	pagesize   int
	shards     []shard
	shardShift uint32       // 32 - log2(len(shards))
	maxTotal   int          // pool-wide buffer budget
	resident   atomic.Int64 // pool-wide resident count (fast path for alloc)

	// prefetchBuf recycles the vectored-read scratch buffers used by
	// PrefetchChain (a pointer type, so Get/Put do not allocate).
	prefetchBuf sync.Pool
}

// Counters sums the per-shard event counters. Each shard is read under
// its own lock, so the totals never tear, though shards are sampled at
// slightly different instants.
func (p *Pool) Counters() PoolCounters {
	var c PoolCounters
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		c.Hits += sh.n.Hits
		c.Misses += sh.n.Misses
		c.Evictions += sh.n.Evictions
		c.NewPages += sh.n.NewPages
		c.Overcommits += sh.n.Overcommits
		c.Pins += sh.n.Pins
		c.Prefetched += sh.n.Prefetched
		sh.mu.Unlock()
	}
	return c
}

// HitRatio reports hits/(hits+misses), or 0 before any traffic.
func (c PoolCounters) HitRatio() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// Pinned counts currently pinned buffers (a scrape-time scan; buffers
// are pinned only for the duration of one table operation).
func (p *Pool) Pinned() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, b := range sh.table {
			if b.Pinned() {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// RegisterMetrics exports the pool's counters and occupancy gauges into
// reg under prefix (e.g. "buffer_"). The counter funcs sum the shards at
// scrape time; nothing is added to the fault/hit hot path.
func (p *Pool) RegisterMetrics(reg *metrics.Registry, prefix string) {
	sum := func(pick func(PoolCounters) int64) func() int64 {
		return func() int64 { return pick(p.Counters()) }
	}
	reg.CounterFunc(prefix+"hits_total", sum(func(c PoolCounters) int64 { return c.Hits }))
	reg.CounterFunc(prefix+"misses_total", sum(func(c PoolCounters) int64 { return c.Misses }))
	reg.CounterFunc(prefix+"evictions_total", sum(func(c PoolCounters) int64 { return c.Evictions }))
	reg.CounterFunc(prefix+"new_pages_total", sum(func(c PoolCounters) int64 { return c.NewPages }))
	reg.CounterFunc(prefix+"overcommits_total", sum(func(c PoolCounters) int64 { return c.Overcommits }))
	reg.CounterFunc(prefix+"pins_total", sum(func(c PoolCounters) int64 { return c.Pins }))
	reg.CounterFunc(prefix+"prefetched_total", sum(func(c PoolCounters) int64 { return c.Prefetched }))
	reg.GaugeFunc(prefix+"resident", func() int64 { return p.resident.Load() })
	reg.GaugeFunc(prefix+"pinned", func() int64 { return int64(p.Pinned()) })
	reg.GaugeFunc(prefix+"capacity", func() int64 { return int64(p.maxTotal) })
	reg.GaugeFunc(prefix+"shards", func() int64 { return int64(len(p.shards)) })
}

// MinBuffers is the floor on per-shard size: a bucket split can touch the
// old chain, the new chain and an allocation simultaneously, so a shard
// must always be able to hold a handful of pinned pages.
const MinBuffers = 8

// defaultShards is the shard-count ceiling when Config.Shards is zero.
const defaultShards = 16

// New creates a pool of at most maxBytes of page buffers (rounded up to
// MinBuffers pages) over store, using mapAddr to place logical pages.
func New(store pagefile.Store, maxBytes int, mapAddr MapFunc) *Pool {
	return NewConfig(store, maxBytes, mapAddr, Config{})
}

// NewConfig creates a pool with explicit sharding and load-hook options.
func NewConfig(store pagefile.Store, maxBytes int, mapAddr MapFunc, cfg Config) *Pool {
	ps := store.PageSize()
	total := maxBytes / ps
	if total < MinBuffers {
		total = MinBuffers
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = defaultShards
	}
	if byBudget := total / MinBuffers; nshards > byBudget {
		nshards = byBudget
	}
	if nshards < 1 {
		nshards = 1
	}
	nshards = 1 << floorLog2(nshards) // power of two for mask arithmetic

	p := &Pool{
		store:      store,
		mapAddr:    mapAddr,
		onLoad:     cfg.OnLoad,
		onEvict:    cfg.OnEvict,
		pagesize:   ps,
		shards:     make([]shard, nshards),
		shardShift: 32 - uint32(floorLog2(nshards)),
		maxTotal:   total,
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.max = total / nshards
		if i < total%nshards {
			sh.max++
		}
		sh.table = make(map[Addr]*Buf, sh.max)
		sh.lru.next = &sh.lru
		sh.lru.prev = &sh.lru
	}
	return p
}

func floorLog2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// shardFor maps an owning bucket to its shard (Fibonacci hashing spreads
// consecutive bucket numbers across shards).
func (p *Pool) shardFor(owner uint32) *shard {
	return &p.shards[(owner*0x9E3779B1)>>p.shardShift]
}

// ShardCount reports the number of lock stripes.
func (p *Pool) ShardCount() int { return len(p.shards) }

// MaxBuffers reports the pool's capacity in pages.
func (p *Pool) MaxBuffers() int { return p.maxTotal }

// Resident reports the number of buffers currently held.
func (p *Pool) Resident() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += len(sh.table)
		sh.mu.Unlock()
	}
	return n
}

func (sh *shard) lruInsert(b *Buf) {
	b.next = sh.lru.next
	b.prev = &sh.lru
	sh.lru.next.prev = b
	sh.lru.next = b
}

func (sh *shard) lruRemove(b *Buf) {
	b.prev.next = b.next
	b.next.prev = b.prev
	b.prev, b.next = nil, nil
}

func (sh *shard) touch(b *Buf) {
	sh.lruRemove(b)
	sh.lruInsert(b)
}

// Get returns a pinned buffer for addr. prev, if non-nil, is the
// predecessor buffer of an overflow page and receives the chain link;
// it also determines the shard, keeping a whole chain in its owning
// bucket's stripe. prev must be nil for primary pages and non-nil for
// overflow pages (use GetOwned for an unlinked overflow fetch). If create
// is set and the page is not in the store, a zeroed page is returned,
// marked dirty so it will eventually be written.
func (p *Pool) Get(addr Addr, prev *Buf, create bool) (*Buf, error) {
	return p.GetOp(nil, addr, prev, create)
}

// GetOp is Get with op-ledger attribution: a pool-resident page counts
// a buffer hit on led (no clock read), a faulted page charges the
// buffer-fault phase (allocation, eviction and the store read
// included). A nil ledger is exactly Get.
func (p *Pool) GetOp(led *oplog.Ledger, addr Addr, prev *Buf, create bool) (*Buf, error) {
	if !addr.Ovfl && prev != nil {
		return nil, fmt.Errorf("buffer: primary page %v requested with predecessor", addr)
	}
	if addr.Ovfl && prev == nil {
		return nil, fmt.Errorf("buffer: overflow page %v requested without predecessor (use GetOwned)", addr)
	}
	owner := addr.N
	if prev != nil {
		owner = prev.owner
	}
	return p.get(addr, owner, prev, create, led)
}

// GetOwned returns a pinned buffer for an overflow page fetched outside
// its chain (iterators, tools), naming the bucket that owns it so the
// fetch uses the chain's shard.
func (p *Pool) GetOwned(addr Addr, owner uint32, create bool) (*Buf, error) {
	if !addr.Ovfl {
		return nil, fmt.Errorf("buffer: GetOwned of primary page %v", addr)
	}
	return p.get(addr, owner, nil, create, nil)
}

func (p *Pool) get(addr Addr, owner uint32, prev *Buf, create bool, led *oplog.Ledger) (*Buf, error) {
	sh := p.shardFor(owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if b, ok := sh.table[addr]; ok {
		sh.n.Hits++
		sh.n.Pins++
		sh.touch(b)
		b.Pin()
		if prev != nil {
			link(prev, b)
		}
		led.Count(oplog.PhaseBufHit)
		return b, nil
	}
	sh.n.Misses++
	if led != nil {
		defer led.Since(oplog.PhaseBufFault, oplog.Clock())
	}
	b, err := p.alloc(sh, addr, owner)
	if err != nil {
		return nil, err
	}
	pageno := p.mapAddr(addr)
	switch err := p.store.ReadPage(pageno, b.Page); {
	case err == nil:
	case errors.Is(err, pagefile.ErrNotAllocated) && create:
		clear(b.Page)
		b.Dirty.Store(true)
		sh.n.NewPages++
	case errors.Is(err, pagefile.ErrNotAllocated):
		sh.recycle(b)
		return nil, fmt.Errorf("buffer: %v: %w", addr, err)
	default:
		sh.recycle(b)
		return nil, err
	}
	if p.onLoad != nil && p.onLoad(addr, b.Page) {
		b.Dirty.Store(true)
	}
	sh.table[addr] = b
	sh.lruInsert(b)
	p.resident.Add(1)
	sh.n.Pins++
	b.Pin()
	if prev != nil {
		link(prev, b)
	}
	return b, nil
}

// link makes b the resident successor of a, or cuts a's link when b is
// nil. It is the only writer of a chain link and keeps the links
// two-way: at most one buffer links to any buffer, and it is that
// buffer's pred. Both buffers live in the chain's shard; called with its
// lock held.
func link(a, b *Buf) {
	if a.ovfl == b {
		return
	}
	if old := a.ovfl; old != nil {
		old.pred = nil
	}
	if b != nil {
		if q := b.pred; q != nil {
			q.ovfl = nil
		}
		b.pred = a
	}
	a.ovfl = b
}

// alloc obtains a free buffer, evicting this shard's coldest evictable
// chain when the pool as a whole is at capacity — the budget is global,
// so a skewed bucket distribution cannot strand capacity in cold
// shards. If the shard has nothing evictable, it overcommits. Evicted
// buffers are recycled rather than reallocated. Called with sh.mu held.
func (p *Pool) alloc(sh *shard, addr Addr, owner uint32) (*Buf, error) {
	if int(p.resident.Load()) >= p.maxTotal {
		evicted := false
		for cand := sh.lru.prev; cand != &sh.lru; cand = cand.prev {
			if chainPinned(cand) {
				continue
			}
			if err := p.evict(sh, cand); err != nil {
				return nil, err
			}
			evicted = true
			break
		}
		if !evicted {
			sh.n.Overcommits++
		}
	}
	if n := len(sh.free); n > 0 {
		b := sh.free[n-1]
		sh.free = sh.free[:n-1]
		b.reset(addr, owner, sh)
		return b, nil
	}
	return &Buf{Addr: addr, Page: make([]byte, p.pagesize), owner: owner, sh: sh}, nil
}

// reset reinitializes a recycled buffer header in place (a struct
// assignment would copy the atomic pin counter, which go vet rejects).
func (b *Buf) reset(addr Addr, owner uint32, sh *shard) {
	b.Addr = addr
	b.Dirty.Store(false)
	b.pins.Store(0)
	b.owner = owner
	b.sh = sh
	b.ovfl, b.pred, b.prev, b.next = nil, nil, nil, nil
}

// recycle returns an evicted buffer's memory to the shard free list.
// Called with sh.mu held.
func (sh *shard) recycle(b *Buf) {
	if len(sh.free) < sh.max {
		sh.free = append(sh.free, b)
	}
}

// chainPinned reports whether b or any overflow buffer chained behind it
// is pinned.
func chainPinned(b *Buf) bool {
	for ; b != nil; b = b.ovfl {
		if b.Pinned() {
			return true
		}
	}
	return false
}

// evict flushes and drops head together with its resident overflow chain
// (the paper: an overflow page cannot stay in the pool when its
// predecessor leaves). The whole chain lives in sh by construction.
// Demand walks keep a chain's head colder than its members, but filter
// skips and read-ahead let a predecessor stay hot while its successors
// go cold, so head may be such a cold suffix: its pred keeps its place
// and only loses the link. Cutting that one link first also makes the
// walk below a simple path — every buffer has at most one pred — so even
// a corrupt on-disk chain cannot loop it. Called with sh.mu held.
func (p *Pool) evict(sh *shard, head *Buf) error {
	if head.pred != nil {
		link(head.pred, nil)
	}
	for b := head; b != nil; {
		next := b.ovfl
		dirty := b.Dirty.Load()
		if err := p.flushBuf(b); err != nil {
			return err
		}
		link(b, nil)
		sh.lruRemove(b)
		delete(sh.table, b.Addr)
		p.resident.Add(-1)
		sh.n.Evictions++
		if p.onEvict != nil {
			p.onEvict(b.Addr, dirty)
		}
		sh.recycle(b)
		b = next
	}
	return nil
}

func (p *Pool) flushBuf(b *Buf) error {
	if !b.Dirty.Load() {
		return nil
	}
	if err := p.store.WritePage(p.mapAddr(b.Addr), b.Page); err != nil {
		return err
	}
	b.Dirty.Store(false)
	return nil
}

// MaxPrefetch caps the pages a single chain read-ahead fetches, bounding
// its scratch buffer and the residency it can claim at once.
const MaxPrefetch = 8

// PrefetchChain faults the overflow chain hanging off prev into the pool
// with one vectored store read, installing every fetched page in a
// single shard-lock epoch (the chain's whole shard state — residency
// check, device read, table inserts, chain links — mutates under one
// acquisition of the shard mutex, so no concurrent eviction can slip a
// newer page version between the read and the install). first is the
// chain's next address after prev; max bounds the pages fetched (the
// caller typically passes the primary filter's recorded chain length);
// nextAddr parses a page's trailing overflow link, returning ok=false at
// the end of the chain or on a page it does not trust.
//
// Only pages reached by walking links from prev are installed — the
// vectored read is a speculative contiguous span (overflow pages of one
// chain are allocated consecutively at a split point), and any page of
// the span the walk does not claim is discarded, so a neighboring
// bucket's page can never be installed into the wrong shard. Installed
// pages carry exactly the bytes a demand ReadPage would have returned
// and are left unpinned, to be re-pinned as hits by the caller's chain
// walk. Prefetch never writes: at capacity it evicts only clean,
// unpinned chains and otherwise stops early. Returns the number of pages
// installed. Best-effort: a read error installs nothing. led, if non-nil,
// is charged the prefetch phase from the device read on; a fully
// resident chain reads no clock.
func (p *Pool) PrefetchChain(led *oplog.Ledger, prev *Buf, first Addr, max int, nextAddr func([]byte) (Addr, bool)) int {
	vr, ok := p.store.(pagefile.VectorReader)
	if !ok || max <= 0 || prev == nil || !first.Ovfl {
		return 0
	}
	if max > MaxPrefetch {
		max = MaxPrefetch
	}
	owner := prev.owner
	sh := p.shardFor(owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	// Skip the already-resident prefix of the chain.
	cur, pred, steps := first, prev, 0
	for steps < max {
		b, ok := sh.table[cur]
		if !ok {
			break
		}
		link(pred, b)
		nxt, ok := nextAddr(b.Page)
		if !ok || nxt == (Addr{}) {
			return 0 // chain fully resident (or untrusted)
		}
		pred, cur = b, nxt
		steps++
	}
	if steps >= max {
		return 0
	}

	// One vectored read of the span expected to hold the rest.
	k := max - steps
	base := p.mapAddr(cur)
	if np := p.store.NPages(); base >= np {
		return 0
	} else if uint32(k) > np-base {
		k = int(np - base)
	}
	bp, _ := p.prefetchBuf.Get().(*[]byte)
	if bp == nil || cap(*bp) < MaxPrefetch*p.pagesize {
		s := make([]byte, MaxPrefetch*p.pagesize)
		bp = &s
	}
	defer p.prefetchBuf.Put(bp)
	if led != nil {
		defer led.Since(oplog.PhasePrefetch, oplog.Clock())
	}
	span := (*bp)[:k*p.pagesize]
	if err := vr.ReadPages(base, span); err != nil {
		return 0
	}

	installed := 0
	for steps < max {
		var pagebytes []byte
		if b, ok := sh.table[cur]; ok {
			// A later chain page can be resident while an earlier one is
			// not (iterators fetch overflow pages unlinked); follow it.
			link(pred, b)
			pagebytes = b.Page
			pred = b
		} else {
			pn := p.mapAddr(cur)
			if pn < base || pn >= base+uint32(k) {
				break // chain left the contiguous span
			}
			if int(p.resident.Load()) >= p.maxTotal && !p.evictClean(sh, owner) {
				break // never steal a dirty page for read-ahead
			}
			var b *Buf
			if n := len(sh.free); n > 0 {
				b = sh.free[n-1]
				sh.free = sh.free[:n-1]
				b.reset(cur, owner, sh)
			} else {
				b = &Buf{Addr: cur, Page: make([]byte, p.pagesize), owner: owner, sh: sh}
			}
			src := span[int(pn-base)*p.pagesize:]
			copy(b.Page, src[:p.pagesize])
			if p.onLoad != nil && p.onLoad(cur, b.Page) {
				b.Dirty.Store(true)
			}
			sh.table[cur] = b
			sh.lruInsert(b)
			p.resident.Add(1)
			link(pred, b)
			sh.n.Prefetched++
			installed++
			pagebytes = b.Page
			pred = b
		}
		nxt, ok := nextAddr(pagebytes)
		if !ok || nxt == (Addr{}) {
			break
		}
		cur = nxt
		steps++
	}
	return installed
}

// evictClean evicts the shard's coldest unpinned chain containing no
// dirty buffer, so the eviction performs no store write. Buffers owned
// by skipOwner are never candidates: the caller is mid-prefetch on that
// owner's chain and holds unpinned local references into it (the
// primary's pin protects only the buffers chained *behind* it, and the
// pages installed moments ago are clean and unpinned — evicting one
// would recycle a buffer the prefetch is about to link). Reports whether
// anything was evicted. Called with sh.mu held.
func (p *Pool) evictClean(sh *shard, skipOwner uint32) bool {
	for cand := sh.lru.prev; cand != &sh.lru; cand = cand.prev {
		if cand.owner == skipOwner || chainPinned(cand) || chainDirty(cand) {
			continue
		}
		if err := p.evict(sh, cand); err != nil {
			return false
		}
		return true
	}
	return false
}

// chainDirty reports whether b or any overflow buffer chained behind it
// is dirty.
func chainDirty(b *Buf) bool {
	for ; b != nil; b = b.ovfl {
		if b.Dirty.Load() {
			return true
		}
	}
	return false
}

// Put unpins a buffer obtained from Get.
func (p *Pool) Put(b *Buf) { b.Unpin() }

// Drop removes b from its chain and from the pool without writing it
// (its page was freed): b's predecessor, if linked, is re-linked to b's
// successor. b must be pinned by the caller, and Drop releases that pin
// under the shard lock: unpinned first, b would be a cold, evictable
// buffer that a fault in the same shard could recycle for another page,
// which Drop would then remove from under its holder.
func (p *Pool) Drop(b *Buf) {
	sh := b.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b.Unpin()
	p.dropLocked(sh, b)
}

// dropLocked is Drop with sh.mu held.
func (p *Pool) dropLocked(sh *shard, b *Buf) {
	if q := b.pred; q != nil {
		link(q, b.ovfl)
	} else {
		link(b, nil)
	}
	if sh.table[b.Addr] == b {
		sh.lruRemove(b)
		delete(sh.table, b.Addr)
		p.resident.Add(-1)
	}
	b.Dirty.Store(false)
	// An unpinned buffer can be recycled: once out of the table no new
	// pin can reach it. A pinned one is still referenced by its holder,
	// whose Put releases the pin; its memory is left to the collector.
	if !b.Pinned() {
		sh.recycle(b)
	}
}

// Discard drops the buffer for addr without writing it, if resident.
// Used for freed pages whose contents no longer matter. The owning shard
// is not known to every caller (a freed overflow page's bucket is gone),
// so all shards are probed; the buffer's predecessor, if linked, is
// re-linked to its successor as Drop does.
func (p *Pool) Discard(addr Addr) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		if b, ok := sh.table[addr]; ok {
			p.dropLocked(sh, b)
		}
		sh.mu.Unlock()
	}
}

// maxCoalesce caps the pages merged into one vectored write, bounding
// the scratch buffer (64 pages = 256 KB at the largest page size).
const maxCoalesce = 64

// FlushAll writes every dirty buffer to the store in ascending physical
// page order, coalescing runs of adjacent pages into single vectored
// writes when the store supports them (pagefile.VectorWriter). The LRU
// flush order the C package inherited from its pool is the worst case
// for a disk — page 900, page 3, page 412 — whereas a sorted flush is
// one forward pass; on stores without vectored writes the sorted order
// still turns the flush into sequential WritePage calls. Buffers stay
// resident. Collected buffers are pinned across the write pass so a
// concurrent fault cannot evict (and recycle) them mid-flush; the Dirty
// flag is cleared after a successful write. On error, buffers not yet
// written keep their Dirty flag, so a later flush retries them.
func (p *Pool) FlushAll() error {
	type dirtyRef struct {
		b      *Buf
		pageno uint32
	}
	var refs []dirtyRef
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for b := sh.lru.prev; b != &sh.lru; b = b.prev {
			if b.Dirty.Load() {
				b.Pin()
				refs = append(refs, dirtyRef{b: b, pageno: p.mapAddr(b.Addr)})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].pageno < refs[j].pageno })

	vw, _ := p.store.(pagefile.VectorWriter)
	var scratch []byte
	writeRun := func(run []dirtyRef) error {
		if len(run) == 1 || vw == nil {
			for _, r := range run {
				if err := p.store.WritePage(r.pageno, r.b.Page); err != nil {
					return err
				}
			}
			return nil
		}
		need := len(run) * p.pagesize
		if cap(scratch) < need {
			scratch = make([]byte, need)
		}
		buf := scratch[:need]
		for k, r := range run {
			copy(buf[k*p.pagesize:(k+1)*p.pagesize], r.b.Page)
		}
		return vw.WritePages(run[0].pageno, buf)
	}

	var err error
	for lo := 0; lo < len(refs) && err == nil; {
		hi := lo + 1
		for hi < len(refs) && hi-lo < maxCoalesce && refs[hi].pageno == refs[hi-1].pageno+1 {
			hi++
		}
		if err = writeRun(refs[lo:hi]); err == nil {
			for _, r := range refs[lo:hi] {
				r.b.Dirty.Store(false)
			}
		}
		lo = hi
	}
	for _, r := range refs {
		r.b.Unpin()
	}
	return err
}

// InvalidateAll flushes and drops every buffer; pinned buffers are an
// error. Used by Close and by tests that reopen stores.
func (p *Pool) InvalidateAll() error {
	if err := p.FlushAll(); err != nil {
		return err
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for addr, b := range sh.table {
			if b.Pinned() {
				sh.mu.Unlock()
				return fmt.Errorf("buffer: invalidate with pinned buffer %v", addr)
			}
		}
		for b := sh.lru.next; b != &sh.lru; {
			next := b.next
			b.prev, b.next, b.ovfl, b.pred = nil, nil, nil, nil
			b = next
		}
		sh.lru.next = &sh.lru
		sh.lru.prev = &sh.lru
		p.resident.Add(-int64(len(sh.table)))
		sh.table = make(map[Addr]*Buf)
		sh.mu.Unlock()
	}
	return nil
}

// Lookup returns the resident buffer for addr without pinning it, or nil.
// Intended for tests and the dump tool; it searches every shard.
func (p *Pool) Lookup(addr Addr) *Buf {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		b := sh.table[addr]
		sh.mu.Unlock()
		if b != nil {
			return b
		}
	}
	return nil
}
