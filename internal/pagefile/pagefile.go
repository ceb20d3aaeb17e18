// Package pagefile provides page-granular storage for the hashing package
// and its disk-based baselines.
//
// The paper's system ran on a raw UNIX file over an HP7959S disk and
// measured user/system/elapsed time with getrusage. This substrate
// preserves what drives those measurements — the number of pages moved
// between the buffer pool and the disk — by counting every page read,
// write and sync, and by charging a configurable per-operation cost that
// the benchmark harness reports as "system time". Stores may be backed by
// a real file (FileStore) or by memory (MemStore), and a fault-injecting
// wrapper (FaultStore) is provided for failure testing.
package pagefile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"unixhash/internal/metrics"
	"unixhash/internal/trace"
)

// ErrNotAllocated is returned by ReadPage when the requested page lies
// entirely beyond the end of the store. Callers treat such pages as fresh
// (all-zero) pages to be initialized.
var ErrNotAllocated = errors.New("pagefile: page not allocated")

// Store is a page-granular storage device. All pages have the same size,
// fixed when the store is created. Implementations must be safe for
// concurrent use by multiple goroutines.
type Store interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// ReadPage fills buf (which must be PageSize bytes) with page pageno.
	// It returns ErrNotAllocated if the page has never been written.
	ReadPage(pageno uint32, buf []byte) error
	// WritePage writes buf (PageSize bytes) as page pageno, extending the
	// store if needed.
	WritePage(pageno uint32, buf []byte) error
	// NPages reports the current store length in pages.
	NPages() uint32
	// Sync forces written pages to stable storage.
	Sync() error
	// Close releases the store. For file-backed stores the file is synced
	// and closed; the data remains on disk.
	Close() error
	// Stats returns the store's I/O accounting. The returned pointer is
	// live: it keeps updating as the store is used.
	Stats() *Stats
}

// VectorWriter is an optional Store extension: a store that can write a
// run of consecutive pages in one device operation. buf holds the pages
// back to back (len(buf) must be a multiple of PageSize), destined for
// pages [pageno, pageno+len(buf)/PageSize). The buffer pool's FlushAll
// uses this to turn a sorted flush into large sequential writes; stores
// that do not implement it (notably the fault-injecting and journaling
// wrappers, whose page-granular accounting must see every write) are
// served page by page.
type VectorWriter interface {
	WritePages(pageno uint32, buf []byte) error
}

// VectorReader is the read-side counterpart of VectorWriter: a store
// that can read a run of consecutive pages in one device operation into
// buf (len(buf) a multiple of PageSize). Pages in the run that were
// never written are zero-filled rather than failing the whole read — a
// read-ahead over a chain must degrade to fresh pages, not errors. The
// buffer pool's chain prefetch uses this to fault a whole overflow
// chain in one seek. Stores that do not implement it are served page by
// page.
type VectorReader interface {
	ReadPages(pageno uint32, buf []byte) error
}

// CostModel assigns a simulated cost to each I/O operation, standing in
// for the 1991 disk the paper measured. Costs only accumulate in
// Stats.IOTime; no operation waits for them.
type CostModel struct {
	ReadCost  time.Duration
	WriteCost time.Duration
	SyncCost  time.Duration
}

// DefaultCostModel approximates a late-1980s SCSI disk: dominated by
// seek/rotation, identical for read and write at hash-page sizes.
func DefaultCostModel() CostModel {
	return CostModel{ReadCost: 20 * time.Millisecond, WriteCost: 20 * time.Millisecond, SyncCost: time.Millisecond}
}

// Stats counts the I/O a store has performed. Reads, Writes and Syncs
// count *attempted* operations — an operation that fails (including one
// blocked by fault injection) still counts, and additionally increments
// Errors — so fault-injection runs report the I/O the caller asked for,
// not just the I/O that succeeded. All fields are protected by mu; use
// the accessor methods from concurrent contexts.
type Stats struct {
	mu           sync.Mutex
	Reads        int64
	Writes       int64
	Syncs        int64
	Errors       int64 // failed operations (real or injected)
	BytesRead    int64
	BytesWritten int64
	IOTime       time.Duration // accumulated simulated cost
	cost         CostModel

	// Real (wall-clock) latency of the underlying device operations,
	// recorded alongside the simulated cost model. The histograms are
	// atomic and may be read while the store is in use.
	ReadLatency  metrics.Histogram
	WriteLatency metrics.Histogram
	SyncLatency  metrics.Histogram

	// tr, when set, receives a slow-io trace event for every device
	// operation at or above the tracer's threshold. Loaded atomically so
	// SetTrace is safe against in-flight operations.
	tr atomic.Pointer[trace.Tracer]
}

// SetTrace attaches a tracer to the store's latency accounting: device
// operations lasting at least trace.SlowIOThreshold emit a
// trace.EvSlowIO event. A nil tracer detaches.
func (s *Stats) SetTrace(t *trace.Tracer) { s.tr.Store(t) }

// observeRead records one device read's latency and traces it if slow;
// likewise observeWrite and observeSync below. These sit on the I/O
// path, so the disabled-trace cost is one atomic pointer load.
func (s *Stats) observeRead(pageno uint32, bytes int, d time.Duration) {
	s.ReadLatency.Observe(d)
	s.tr.Load().SlowIO(trace.IORead, pageno, bytes, d)
}

func (s *Stats) observeWrite(pageno uint32, bytes int, d time.Duration) {
	s.WriteLatency.Observe(d)
	s.tr.Load().SlowIO(trace.IOWrite, pageno, bytes, d)
}

func (s *Stats) observeSync(d time.Duration) {
	s.SyncLatency.Observe(d)
	s.tr.Load().SlowIO(trace.IOSync, 0, 0, d)
}

// Register exports the store's counters and latency histograms into reg
// under the given name prefix (conventionally "pagefile_"). Counter
// values are computed at scrape time from the live Stats, so no extra
// work lands on the I/O path. First registration of a name wins; give
// distinct stores distinct prefixes if both must be visible.
func (s *Stats) Register(reg *metrics.Registry, prefix string) {
	get := func(pick func(*Stats) int64) func() int64 {
		return func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return pick(s)
		}
	}
	reg.CounterFunc(prefix+"reads_total", get(func(s *Stats) int64 { return s.Reads }))
	reg.CounterFunc(prefix+"writes_total", get(func(s *Stats) int64 { return s.Writes }))
	reg.CounterFunc(prefix+"syncs_total", get(func(s *Stats) int64 { return s.Syncs }))
	reg.CounterFunc(prefix+"errors_total", get(func(s *Stats) int64 { return s.Errors }))
	reg.CounterFunc(prefix+"read_bytes_total", get(func(s *Stats) int64 { return s.BytesRead }))
	reg.CounterFunc(prefix+"written_bytes_total", get(func(s *Stats) int64 { return s.BytesWritten }))
	reg.CounterFunc(prefix+"simulated_io_seconds_total", get(func(s *Stats) int64 { return int64(s.IOTime.Seconds()) }))
	reg.AddHistogram(prefix+"read_seconds", &s.ReadLatency)
	reg.AddHistogram(prefix+"write_seconds", &s.WriteLatency)
	reg.AddHistogram(prefix+"sync_seconds", &s.SyncLatency)
}

func (s *Stats) addRead(n int) {
	s.mu.Lock()
	s.Reads++
	s.BytesRead += int64(n)
	s.IOTime += s.cost.ReadCost
	s.mu.Unlock()
}

func (s *Stats) addWrite(n int) {
	s.mu.Lock()
	s.Writes++
	s.BytesWritten += int64(n)
	s.IOTime += s.cost.WriteCost
	s.mu.Unlock()
}

func (s *Stats) addSync() {
	s.mu.Lock()
	s.Syncs++
	s.IOTime += s.cost.SyncCost
	s.mu.Unlock()
}

// addWriteVec accounts a vectored write of npages pages (n bytes total)
// exactly as npages individual page writes: the stats model deliberately
// measures pages moved and charges the cost model per page, so
// coalescing never changes a benchmark's simulated I/O time or write
// count. The real savings — one syscall, one seek — show up in wall
// clock and in the WriteLatency histogram, which records one observation
// per device operation.
func (s *Stats) addWriteVec(npages, n int) {
	s.mu.Lock()
	s.Writes += int64(npages)
	s.BytesWritten += int64(n)
	s.IOTime += time.Duration(npages) * s.cost.WriteCost
	s.mu.Unlock()
}

// addReadVec accounts a vectored read exactly as npages individual page
// reads, mirroring addWriteVec: the simulated model charges pages
// moved, so read-ahead never changes a benchmark's simulated I/O time;
// the real savings show up in wall clock and the ReadLatency histogram
// (one observation per device operation).
func (s *Stats) addReadVec(npages, n int) {
	s.mu.Lock()
	s.Reads += int64(npages)
	s.BytesRead += int64(n)
	s.IOTime += time.Duration(npages) * s.cost.ReadCost
	s.mu.Unlock()
}

func (s *Stats) addError() {
	s.mu.Lock()
	s.Errors++
	s.mu.Unlock()
}

// Snapshot returns a consistent copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StatsSnapshot{
		Reads: s.Reads, Writes: s.Writes, Syncs: s.Syncs, Errors: s.Errors,
		BytesRead: s.BytesRead, BytesWritten: s.BytesWritten, IOTime: s.IOTime,
	}
}

// Reset zeroes the counters (the cost model is kept).
func (s *Stats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Reads, s.Writes, s.Syncs, s.Errors = 0, 0, 0, 0
	s.BytesRead, s.BytesWritten = 0, 0
	s.IOTime = 0
}

// StatsSnapshot is a point-in-time copy of a Stats.
type StatsSnapshot struct {
	Reads        int64
	Writes       int64
	Syncs        int64
	Errors       int64
	BytesRead    int64
	BytesWritten int64
	IOTime       time.Duration
}

// Sub returns the component-wise difference s - o, for measuring the I/O
// attributable to one phase of a benchmark.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes, Syncs: s.Syncs - o.Syncs,
		Errors:    s.Errors - o.Errors,
		BytesRead: s.BytesRead - o.BytesRead, BytesWritten: s.BytesWritten - o.BytesWritten,
		IOTime: s.IOTime - o.IOTime,
	}
}

// Ops reports the total page operations in the snapshot.
func (s StatsSnapshot) Ops() int64 { return s.Reads + s.Writes }

func (s StatsSnapshot) String() string {
	return fmt.Sprintf("reads=%d writes=%d syncs=%d errors=%d iotime=%v",
		s.Reads, s.Writes, s.Syncs, s.Errors, s.IOTime)
}

func validPageSize(n int) error {
	if n <= 0 {
		return fmt.Errorf("pagefile: invalid page size %d", n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// FileStore

// FileStore is a Store backed by an operating-system file.
type FileStore struct {
	mu       sync.Mutex
	f        *os.File
	pagesize int
	npages   uint32
	stats    Stats
	closed   bool
}

// OpenFile opens (creating if necessary) a file-backed store at path. An
// existing file must have a length that is a multiple of pagesize.
func OpenFile(path string, pagesize int, cost CostModel) (*FileStore, error) {
	if err := validPageSize(pagesize); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size()%int64(pagesize) != 0 {
		f.Close()
		return nil, fmt.Errorf("pagefile: %s: size %d is not a multiple of page size %d", path, fi.Size(), pagesize)
	}
	fs := &FileStore{f: f, pagesize: pagesize, npages: uint32(fi.Size() / int64(pagesize))}
	fs.stats.cost = cost
	return fs, nil
}

// PageSize implements Store.
func (fs *FileStore) PageSize() int { return fs.pagesize }

// NPages implements Store.
func (fs *FileStore) NPages() uint32 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.npages
}

// Stats implements Store.
func (fs *FileStore) Stats() *Stats { return &fs.stats }

// ReadPage implements Store.
func (fs *FileStore) ReadPage(pageno uint32, buf []byte) error {
	if len(buf) != fs.pagesize {
		return fmt.Errorf("pagefile: read buffer is %d bytes, want %d", len(buf), fs.pagesize)
	}
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return os.ErrClosed
	}
	if pageno >= fs.npages {
		fs.mu.Unlock()
		return ErrNotAllocated
	}
	fs.mu.Unlock()
	fs.stats.addRead(fs.pagesize)
	t0 := time.Now()
	n, err := fs.f.ReadAt(buf, int64(pageno)*int64(fs.pagesize))
	fs.stats.observeRead(pageno, fs.pagesize, time.Since(t0))
	if err == io.EOF && n == fs.pagesize {
		err = nil
	}
	if err != nil {
		fs.stats.addError()
		return fmt.Errorf("pagefile: read page %d: %w", pageno, err)
	}
	return nil
}

// ReadPages implements VectorReader: one positioned read covers the
// whole run; any portion beyond the end of the file is zero-filled.
// The stats count one read per page — see addReadVec.
func (fs *FileStore) ReadPages(pageno uint32, buf []byte) error {
	if len(buf) == 0 || len(buf)%fs.pagesize != 0 {
		return fmt.Errorf("pagefile: vector read of %d bytes is not a multiple of page size %d", len(buf), fs.pagesize)
	}
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return os.ErrClosed
	}
	fs.mu.Unlock()
	fs.stats.addReadVec(len(buf)/fs.pagesize, len(buf))
	t0 := time.Now()
	n, err := fs.f.ReadAt(buf, int64(pageno)*int64(fs.pagesize))
	fs.stats.observeRead(pageno, len(buf), time.Since(t0))
	if err == io.EOF {
		// Short run: the tail pages were never written; serve them fresh.
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
		err = nil
	}
	if err != nil {
		fs.stats.addError()
		return fmt.Errorf("pagefile: read pages %d..%d: %w", pageno, pageno+uint32(len(buf)/fs.pagesize)-1, err)
	}
	return nil
}

// WritePage implements Store.
func (fs *FileStore) WritePage(pageno uint32, buf []byte) error {
	if len(buf) != fs.pagesize {
		return fmt.Errorf("pagefile: write buffer is %d bytes, want %d", len(buf), fs.pagesize)
	}
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return os.ErrClosed
	}
	fs.mu.Unlock()
	fs.stats.addWrite(fs.pagesize)
	t0 := time.Now()
	_, err := fs.f.WriteAt(buf, int64(pageno)*int64(fs.pagesize))
	fs.stats.observeWrite(pageno, fs.pagesize, time.Since(t0))
	if err != nil {
		fs.stats.addError()
		return fmt.Errorf("pagefile: write page %d: %w", pageno, err)
	}
	fs.mu.Lock()
	if pageno >= fs.npages {
		fs.npages = pageno + 1
	}
	fs.mu.Unlock()
	return nil
}

// WritePages implements VectorWriter: one positioned write (one syscall,
// one seek on a real device) covers the whole run. The stats still count
// one write per page — see addWriteVec.
func (fs *FileStore) WritePages(pageno uint32, buf []byte) error {
	if len(buf) == 0 || len(buf)%fs.pagesize != 0 {
		return fmt.Errorf("pagefile: vector write of %d bytes is not a multiple of page size %d", len(buf), fs.pagesize)
	}
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return os.ErrClosed
	}
	fs.mu.Unlock()
	fs.stats.addWriteVec(len(buf)/fs.pagesize, len(buf))
	t0 := time.Now()
	_, err := fs.f.WriteAt(buf, int64(pageno)*int64(fs.pagesize))
	fs.stats.observeWrite(pageno, len(buf), time.Since(t0))
	if err != nil {
		fs.stats.addError()
		return fmt.Errorf("pagefile: write pages %d..%d: %w", pageno, pageno+uint32(len(buf)/fs.pagesize)-1, err)
	}
	fs.mu.Lock()
	if last := pageno + uint32(len(buf)/fs.pagesize); last > fs.npages {
		fs.npages = last
	}
	fs.mu.Unlock()
	return nil
}

// Sync implements Store.
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return os.ErrClosed
	}
	fs.mu.Unlock()
	fs.stats.addSync()
	t0 := time.Now()
	err := fs.f.Sync()
	fs.stats.observeSync(time.Since(t0))
	if err != nil {
		fs.stats.addError()
		return err
	}
	return nil
}

// Close implements Store. Per the Store contract the file is synced
// before it is closed, so a table shut down without an explicit Sync
// still reaches stable storage.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil
	}
	fs.closed = true
	fs.mu.Unlock()
	fs.stats.addSync()
	t0 := time.Now()
	err := fs.f.Sync()
	fs.stats.observeSync(time.Since(t0))
	if err != nil {
		fs.stats.addError()
	}
	if cerr := fs.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// MemStore

// MemStore is a Store kept entirely in memory. It is used for pure
// in-memory hash tables (the hsearch replacement mode) and for benchmarks
// where the cost model, not a real disk, supplies the I/O cost.
type MemStore struct {
	mu       sync.Mutex
	pages    map[uint32][]byte
	pagesize int
	npages   uint32
	stats    Stats
}

// NewMem creates an empty in-memory store.
func NewMem(pagesize int, cost CostModel) *MemStore {
	ms := &MemStore{pages: make(map[uint32][]byte), pagesize: pagesize}
	ms.stats.cost = cost
	return ms
}

// PageSize implements Store.
func (ms *MemStore) PageSize() int { return ms.pagesize }

// NPages implements Store.
func (ms *MemStore) NPages() uint32 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.npages
}

// Stats implements Store.
func (ms *MemStore) Stats() *Stats { return &ms.stats }

// ReadPage implements Store.
func (ms *MemStore) ReadPage(pageno uint32, buf []byte) error {
	if len(buf) != ms.pagesize {
		return fmt.Errorf("pagefile: read buffer is %d bytes, want %d", len(buf), ms.pagesize)
	}
	ms.mu.Lock()
	p, ok := ms.pages[pageno]
	ms.mu.Unlock()
	if !ok {
		return ErrNotAllocated
	}
	t0 := time.Now()
	copy(buf, p)
	ms.stats.observeRead(pageno, ms.pagesize, time.Since(t0))
	ms.stats.addRead(ms.pagesize)
	return nil
}

// ReadPages implements VectorReader with the same per-page stats
// accounting as the file-backed store (see addReadVec). Pages never
// written are zero-filled.
func (ms *MemStore) ReadPages(pageno uint32, buf []byte) error {
	if len(buf) == 0 || len(buf)%ms.pagesize != 0 {
		return fmt.Errorf("pagefile: vector read of %d bytes is not a multiple of page size %d", len(buf), ms.pagesize)
	}
	t0 := time.Now()
	ms.mu.Lock()
	for off := 0; off < len(buf); off += ms.pagesize {
		pn := pageno + uint32(off/ms.pagesize)
		dst := buf[off : off+ms.pagesize]
		if p, ok := ms.pages[pn]; ok {
			copy(dst, p)
		} else {
			for i := range dst {
				dst[i] = 0
			}
		}
	}
	ms.mu.Unlock()
	ms.stats.observeRead(pageno, len(buf), time.Since(t0))
	ms.stats.addReadVec(len(buf)/ms.pagesize, len(buf))
	return nil
}

// WritePage implements Store.
func (ms *MemStore) WritePage(pageno uint32, buf []byte) error {
	if len(buf) != ms.pagesize {
		return fmt.Errorf("pagefile: write buffer is %d bytes, want %d", len(buf), ms.pagesize)
	}
	t0 := time.Now()
	ms.mu.Lock()
	p, ok := ms.pages[pageno]
	if !ok {
		p = make([]byte, ms.pagesize)
		ms.pages[pageno] = p
	}
	copy(p, buf)
	if pageno >= ms.npages {
		ms.npages = pageno + 1
	}
	ms.mu.Unlock()
	ms.stats.observeWrite(pageno, ms.pagesize, time.Since(t0))
	ms.stats.addWrite(ms.pagesize)
	return nil
}

// WritePages implements VectorWriter with the same per-page stats
// accounting as the file-backed store (see addWriteVec), so benchmarks
// over MemStore report identical simulated I/O.
func (ms *MemStore) WritePages(pageno uint32, buf []byte) error {
	if len(buf) == 0 || len(buf)%ms.pagesize != 0 {
		return fmt.Errorf("pagefile: vector write of %d bytes is not a multiple of page size %d", len(buf), ms.pagesize)
	}
	t0 := time.Now()
	ms.mu.Lock()
	for off := 0; off < len(buf); off += ms.pagesize {
		pn := pageno + uint32(off/ms.pagesize)
		p, ok := ms.pages[pn]
		if !ok {
			p = make([]byte, ms.pagesize)
			ms.pages[pn] = p
		}
		copy(p, buf[off:off+ms.pagesize])
		if pn >= ms.npages {
			ms.npages = pn + 1
		}
	}
	ms.mu.Unlock()
	ms.stats.observeWrite(pageno, len(buf), time.Since(t0))
	ms.stats.addWriteVec(len(buf)/ms.pagesize, len(buf))
	return nil
}

// Sync implements Store. A memory store has nothing to flush, but the
// sync is still counted and its (near-zero) latency observed so that
// metric series exist regardless of backing device.
func (ms *MemStore) Sync() error {
	t0 := time.Now()
	ms.stats.addSync()
	ms.stats.observeSync(time.Since(t0))
	return nil
}

// Close implements Store.
func (ms *MemStore) Close() error { return nil }

// ---------------------------------------------------------------------------
// FaultStore

// Op identifies a store operation for fault injection.
type Op int

// Operations that can be made to fail.
const (
	OpRead Op = iota
	OpWrite
	OpSync
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	}
	return "unknown"
}

// Fault describes one injected failure: the After'th occurrence (1-based)
// of Op fails with Err. A Page of ^uint32(0) matches any page. Sync is a
// whole-store operation with no page of its own, so OpSync faults ignore
// the Page field entirely — a fault targeted at page 0 never spuriously
// matches a sync.
type Fault struct {
	Op    Op
	After int64
	Err   error
	Page  uint32
}

// AnyPage matches every page number in a Fault.
const AnyPage = ^uint32(0)

// FaultStore wraps a Store, failing selected operations. It is only used
// in tests and failure-injection benchmarks.
type FaultStore struct {
	Inner Store

	mu     sync.Mutex
	faults []Fault
	counts map[Op]int64
}

// NewFault wraps inner with an empty fault set.
func NewFault(inner Store) *FaultStore {
	return &FaultStore{Inner: inner, counts: make(map[Op]int64)}
}

// Inject adds a fault to the set. Faults are permanent: once an
// operation's count passes After, every matching operation fails.
func (f *FaultStore) Inject(fl Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, fl)
}

// Clear removes all injected faults.
func (f *FaultStore) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = nil
}

func (f *FaultStore) check(op Op, page uint32) error {
	f.mu.Lock()
	f.counts[op]++
	n := f.counts[op]
	var ferr error
	for _, fl := range f.faults {
		if fl.Op != op {
			continue
		}
		// Sync faults are page-less: Page is ignored for OpSync.
		if op != OpSync && fl.Page != AnyPage && fl.Page != page {
			continue
		}
		if n >= fl.After {
			ferr = fl.Err
			break
		}
	}
	f.mu.Unlock()
	if ferr != nil {
		// The blocked operation was still attempted by the caller: count
		// it, and the failure, in the shared stats.
		s := f.Inner.Stats()
		s.mu.Lock()
		switch op {
		case OpRead:
			s.Reads++
		case OpWrite:
			s.Writes++
		case OpSync:
			s.Syncs++
		}
		s.Errors++
		s.mu.Unlock()
	}
	return ferr
}

// PageSize implements Store.
func (f *FaultStore) PageSize() int { return f.Inner.PageSize() }

// NPages implements Store.
func (f *FaultStore) NPages() uint32 { return f.Inner.NPages() }

// Stats implements Store.
func (f *FaultStore) Stats() *Stats { return f.Inner.Stats() }

// ReadPage implements Store.
func (f *FaultStore) ReadPage(pageno uint32, buf []byte) error {
	if err := f.check(OpRead, pageno); err != nil {
		return err
	}
	return f.Inner.ReadPage(pageno, buf)
}

// WritePage implements Store.
func (f *FaultStore) WritePage(pageno uint32, buf []byte) error {
	if err := f.check(OpWrite, pageno); err != nil {
		return err
	}
	return f.Inner.WritePage(pageno, buf)
}

// WritePages implements VectorWriter with a per-page fault check and
// partial application: pages before the faulted one reach the inner
// store, modeling a coalesced run interrupted mid-way. Flush paths must
// therefore treat a failed run as an unknown mixture of written and
// unwritten pages — exactly what the real positioned-write stores leave
// behind on a short write.
func (f *FaultStore) WritePages(pageno uint32, buf []byte) error {
	ps := f.PageSize()
	for i := 0; i*ps < len(buf); i++ {
		p := pageno + uint32(i)
		if err := f.check(OpWrite, p); err != nil {
			return err
		}
		if err := f.Inner.WritePage(p, buf[i*ps:(i+1)*ps]); err != nil {
			return err
		}
	}
	return nil
}

// ReadPages implements VectorReader with a per-page fault check, so a
// read fault injected on any page of the run fails the whole read-ahead
// exactly as the positioned-read stores would. Unallocated pages are
// zero-filled per the VectorReader contract.
func (f *FaultStore) ReadPages(pageno uint32, buf []byte) error {
	ps := f.PageSize()
	for i := 0; i*ps < len(buf); i++ {
		p := pageno + uint32(i)
		dst := buf[i*ps : (i+1)*ps]
		if err := f.check(OpRead, p); err != nil {
			return err
		}
		if err := f.Inner.ReadPage(p, dst); err != nil {
			if !errors.Is(err, ErrNotAllocated) {
				return err
			}
			for j := range dst {
				dst[j] = 0
			}
		}
	}
	return nil
}

// Sync implements Store. Sync faults are page-less: only the Op and
// After fields of an injected Fault are consulted.
func (f *FaultStore) Sync() error {
	if err := f.check(OpSync, AnyPage); err != nil {
		return err
	}
	return f.Inner.Sync()
}

// Close implements Store.
func (f *FaultStore) Close() error { return f.Inner.Close() }

var (
	_ Store        = (*FileStore)(nil)
	_ Store        = (*MemStore)(nil)
	_ Store        = (*FaultStore)(nil)
	_ VectorWriter = (*FileStore)(nil)
	_ VectorWriter = (*MemStore)(nil)
	_ VectorWriter = (*FaultStore)(nil)
	_ VectorReader = (*FileStore)(nil)
	_ VectorReader = (*MemStore)(nil)
	_ VectorReader = (*FaultStore)(nil)
)
