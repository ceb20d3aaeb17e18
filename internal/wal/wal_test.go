package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openEmpty opens a fresh MemDevice and stamps a header, the way the
// table layer normalizes a new log before first use.
func openEmpty(t *testing.T) (*Log, *MemDevice) {
	t.Helper()
	dev := NewMemDevice()
	l, sr, err := Open(dev, CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if sr.HeaderOK || sr.Torn || len(sr.Txns) != 0 {
		t.Fatalf("fresh device scanned as %+v", sr)
	}
	if err := l.Reset(0, 0); err != nil {
		t.Fatalf("reset: %v", err)
	}
	return l, dev
}

func txnOps(i int) []Op {
	return []Op{
		{Key: fmt.Appendf(nil, "key-%04d", i), Data: fmt.Appendf(nil, "val-%04d", i)},
		{Delete: true, Key: fmt.Appendf(nil, "dead-%04d", i)},
	}
}

func TestLogRoundtrip(t *testing.T) {
	l, dev := openEmpty(t)
	const n = 7
	var lastLSN uint64
	for i := 0; i < n; i++ {
		lsn, end, err := l.Append(txnOps(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn <= lastLSN {
			t.Fatalf("append %d: LSN %d not increasing past %d", i, lsn, lastLSN)
		}
		lastLSN = lsn
		if err := l.SyncTo(end); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if got := l.LastLSN(); got != lastLSN {
		t.Fatalf("LastLSN %d, want %d", got, lastLSN)
	}

	re, sr, err := Open(NewMemDeviceFrom(dev.Bytes()), CostModel{}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !sr.HeaderOK || sr.Torn {
		t.Fatalf("reopen scan: %+v", sr)
	}
	if len(sr.Txns) != n || sr.LastLSN != lastLSN {
		t.Fatalf("reopen found %d txns (last %d), want %d (last %d)", len(sr.Txns), sr.LastLSN, n, lastLSN)
	}
	for i, tx := range sr.Txns {
		want := txnOps(i)
		if len(tx.Ops) != len(want) {
			t.Fatalf("txn %d: %d ops, want %d", i, len(tx.Ops), len(want))
		}
		for j := range want {
			got := tx.Ops[j]
			if got.Delete != want[j].Delete || !bytes.Equal(got.Key, want[j].Key) || !bytes.Equal(got.Data, want[j].Data) {
				t.Fatalf("txn %d op %d: got %+v want %+v", i, j, got, want[j])
			}
		}
	}
	// Appends after a reopen stay monotonic.
	lsn, _, err := re.Append(txnOps(99))
	if err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if lsn <= lastLSN {
		t.Fatalf("post-reopen LSN %d not past %d", lsn, lastLSN)
	}
}

// NewMemDeviceFrom builds a MemDevice preloaded with b (test helper).
func NewMemDeviceFrom(b []byte) *MemDevice {
	d := NewMemDevice()
	d.WriteAt(b, 0)
	return d
}

// TestTornTail cuts the device at every byte length and verifies the
// scan degrades monotonically: some prefix of the committed transactions,
// never an error, never a phantom commit.
func TestTornTail(t *testing.T) {
	l, dev := openEmpty(t)
	const n = 4
	ends := make([]int64, 0, n) // valid end after each commit
	for i := 0; i < n; i++ {
		_, end, err := l.Append(txnOps(i))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		ends = append(ends, end)
	}
	full := dev.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		_, sr, err := Open(NewMemDeviceFrom(full[:cut]), CostModel{}, nil)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		// The replayable transactions are exactly those whose commit
		// frame fits inside the cut.
		want := 0
		for _, e := range ends {
			if int64(cut) >= e {
				want++
			}
		}
		if len(sr.Txns) != want {
			t.Fatalf("cut %d: %d txns, want %d", cut, len(sr.Txns), want)
		}
		if want > 0 && sr.ValidEnd != ends[want-1] {
			t.Fatalf("cut %d: ValidEnd %d, want %d", cut, sr.ValidEnd, ends[want-1])
		}
		if wantTorn := int64(cut) != sr.ValidEnd; sr.Torn != wantTorn {
			t.Fatalf("cut %d: Torn=%v, want %v", cut, sr.Torn, wantTorn)
		}
	}
}

// TestCorruptFrame flips one byte in an early frame: the scan must stop
// there, keeping the transactions before it and dropping everything after
// (which is no longer provably ordered).
func TestCorruptFrame(t *testing.T) {
	l, dev := openEmpty(t)
	var ends []int64
	for i := 0; i < 3; i++ {
		_, end, err := l.Append(txnOps(i))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		ends = append(ends, end)
	}
	full := dev.Bytes()
	// A byte inside the second transaction's frames.
	full[ends[0]+10] ^= 0xff
	_, sr, err := Open(NewMemDeviceFrom(full), CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(sr.Txns) != 1 || !sr.Torn || sr.ValidEnd != ends[0] {
		t.Fatalf("after corruption: %d txns, torn=%v, end=%d; want 1, true, %d",
			len(sr.Txns), sr.Torn, sr.ValidEnd, ends[0])
	}
}

// TestCommitCountMismatch hand-corrupts a commit frame's op count; the
// commit must not be honored.
func TestCommitCountMismatch(t *testing.T) {
	l, dev := openEmpty(t)
	if _, _, err := l.Append(txnOps(0)); err != nil {
		t.Fatalf("append: %v", err)
	}
	full := dev.Bytes()
	// The commit frame is the last one: length u32 | crc | u64 lsn | type | u32 nops.
	commitOff := len(full) - (frameHdrSize + recFixedSize + 4)
	payload := full[commitOff+frameHdrSize:]
	le.PutUint32(payload[recFixedSize:], 7) // claim 7 ops
	le.PutUint32(full[commitOff+4:], crc32.ChecksumIEEE(payload))
	_, sr, err := Open(NewMemDeviceFrom(full), CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(sr.Txns) != 0 || !sr.Torn {
		t.Fatalf("mismatched commit honored: %+v", sr)
	}
}

// TestStaleRecords simulates leftovers of an older log generation: a
// record whose LSN is not past the header's checkpoint must stop the scan.
func TestStaleRecords(t *testing.T) {
	l, dev := openEmpty(t)
	lsn, _, err := l.Append(txnOps(0))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	full := dev.Bytes()
	// Stamp a header claiming the checkpoint is already past this commit.
	hb := make([]byte, HeaderSize)
	le.PutUint32(hb[0:], logMagic)
	le.PutUint32(hb[4:], logVersion)
	le.PutUint64(hb[8:], lsn) // checkpoint == the commit's LSN
	le.PutUint64(hb[16:], 1)
	le.PutUint32(hb[HeaderSize-4:], crc32.ChecksumIEEE(hb[:HeaderSize-4]))
	copy(full, hb)
	re, sr, err := Open(NewMemDeviceFrom(full), CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(sr.Txns) != 0 || sr.LastLSN != 0 {
		t.Fatalf("stale records replayed: %+v", sr)
	}
	// And the allocator must still move past them.
	nlsn, _, err := re.Append(txnOps(1))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if nlsn <= lsn {
		t.Fatalf("LSN %d not past stale %d", nlsn, lsn)
	}
}

func TestHeaderDamage(t *testing.T) {
	l, dev := openEmpty(t)
	if _, _, err := l.Append(txnOps(0)); err != nil {
		t.Fatalf("append: %v", err)
	}
	full := dev.Bytes()

	// CRC-damaged header: treated as empty (power cut during Reset).
	bad := append([]byte(nil), full...)
	bad[8] ^= 1
	_, sr, err := Open(NewMemDeviceFrom(bad), CostModel{}, nil)
	if err != nil || sr.HeaderOK || len(sr.Txns) != 0 || !sr.Torn {
		t.Fatalf("damaged header: sr=%+v err=%v", sr, err)
	}

	// CRC-valid but wrong version: a foreign file, fail loudly.
	bad = append([]byte(nil), full...)
	le.PutUint32(bad[4:], 99)
	le.PutUint32(bad[HeaderSize-4:], crc32.ChecksumIEEE(bad[:HeaderSize-4]))
	_, _, err = Open(NewMemDeviceFrom(bad), CostModel{}, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong version: err=%v, want ErrCorrupt", err)
	}
}

func TestReset(t *testing.T) {
	l, dev := openEmpty(t)
	var lastLSN uint64
	for i := 0; i < 3; i++ {
		lsn, end, err := l.Append(txnOps(i))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		lastLSN = lsn
		if err := l.SyncTo(end); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	if err := l.Reset(lastLSN, 5); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if l.Size() != HeaderSize || l.LastLSN() != 0 {
		t.Fatalf("after reset: size=%d lastLSN=%d", l.Size(), l.LastLSN())
	}
	_, sr, err := Open(NewMemDeviceFrom(dev.Bytes()), CostModel{}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !sr.HeaderOK || sr.CheckpointLSN != lastLSN || sr.Epoch != 5 || len(sr.Txns) != 0 || sr.Torn {
		t.Fatalf("reopen after reset: %+v", sr)
	}
	// New appends start past the checkpoint.
	lsn, _, err := l.Append(txnOps(9))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if lsn <= lastLSN {
		t.Fatalf("post-reset LSN %d not past checkpoint %d", lsn, lastLSN)
	}
}

func TestEnsureLSN(t *testing.T) {
	l, _ := openEmpty(t)
	l.EnsureLSN(1000)
	lsn, _, err := l.Append(txnOps(0))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if lsn <= 1000 {
		t.Fatalf("LSN %d not past 1000", lsn)
	}
}

// blockingDev blocks its first Sync until released, then fails it — and
// every later Sync — with syncErr. It counts Sync attempts.
type blockingDev struct {
	*MemDevice
	entered chan struct{} // closed when the first Sync is in flight
	release chan struct{}
	once    sync.Once
	syncs   atomic.Int64
}

var errDevSync = errors.New("simulated fsync failure")

func (d *blockingDev) Sync() error {
	d.syncs.Add(1)
	d.once.Do(func() {
		close(d.entered)
		<-d.release
	})
	return errDevSync
}

// TestSyncToFollowerError pins the group-fsync error contract: followers
// that waited out a round whose leader's fsync failed must see that
// error, not retry as fresh leaders against the failing device.
func TestSyncToFollowerError(t *testing.T) {
	dev := &blockingDev{
		MemDevice: NewMemDevice(),
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	l, _, err := Open(dev, CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Reset would Sync; seed the size by hand instead.
	l.mu.Lock()
	l.size = HeaderSize
	l.mu.Unlock()

	_, end, err := l.Append(txnOps(0))
	if err != nil {
		t.Fatalf("append: %v", err)
	}

	const followers = 8
	errs := make(chan error, followers+1)
	go func() { errs <- l.SyncTo(end) }() // leader
	<-dev.entered
	for i := 0; i < followers; i++ {
		go func() { errs <- l.SyncTo(end) }()
	}
	// Give the followers time to enqueue on the round, then fail it.
	time.Sleep(50 * time.Millisecond)
	close(dev.release)

	for i := 0; i < followers+1; i++ {
		if err := <-errs; !errors.Is(err, errDevSync) {
			t.Fatalf("waiter %d: err=%v, want %v", i, err, errDevSync)
		}
	}
	if n := dev.syncs.Load(); n > 3 {
		t.Fatalf("%d device fsync attempts; followers dog-piled onto the failing device", n)
	}
}

// failWriteDev fails WriteAt after a set number of successful calls.
type failWriteDev struct {
	*MemDevice
	allow    int
	failTrun bool
}

var errDevWrite = errors.New("simulated write failure")

func (d *failWriteDev) WriteAt(p []byte, off int64) (int, error) {
	if d.allow <= 0 {
		return 0, errDevWrite
	}
	d.allow--
	return d.MemDevice.WriteAt(p, off)
}

func (d *failWriteDev) Truncate(size int64) error {
	if d.failTrun {
		return errors.New("simulated truncate failure")
	}
	return d.MemDevice.Truncate(size)
}

func TestAppendFailureRepairsTail(t *testing.T) {
	dev := &failWriteDev{MemDevice: NewMemDevice(), allow: 3}
	l, _, err := Open(dev, CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Reset(0, 0); err != nil { // one write
		t.Fatalf("reset: %v", err)
	}
	if _, _, err := l.Append(txnOps(0)); err != nil { // one write
		t.Fatalf("append: %v", err)
	}
	sizeBefore := l.Size()
	if _, _, err := l.Append(txnOps(1)); err == nil { // fails after one more
		if _, _, err := l.Append(txnOps(2)); err == nil {
			t.Fatal("appends kept succeeding; fault never hit")
		}
	}
	// The tail was repaired: the log still works and holds only intact
	// transactions.
	if l.Size() > sizeBefore+1024 {
		t.Fatalf("size grew past the failed append: %d > %d", l.Size(), sizeBefore)
	}
	dev.allow = 1 << 30
	if _, _, err := l.Append(txnOps(3)); err != nil {
		t.Fatalf("append after repaired failure: %v", err)
	}
	_, sr, err := Open(NewMemDeviceFrom(dev.Bytes()), CostModel{}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, tx := range sr.Txns {
		if len(tx.Ops) != 2 {
			t.Fatalf("reopened txn has %d ops: %+v", len(tx.Ops), tx)
		}
	}
}

func TestAppendFailurePoisonsWhenUnrepairable(t *testing.T) {
	dev := &failWriteDev{MemDevice: NewMemDevice(), allow: 2}
	l, _, err := Open(dev, CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Reset(0, 0); err != nil {
		t.Fatalf("reset: %v", err)
	}
	dev.failTrun = true // the repair path is now unavailable
	if _, _, err := l.Append(txnOps(0)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, _, err := l.Append(txnOps(1)); err == nil {
		t.Fatal("append succeeded past the fault")
	}
	if _, _, err := l.Append(txnOps(2)); !errors.Is(err, ErrBroken) {
		t.Fatalf("append on poisoned log: err=%v, want ErrBroken", err)
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatalf("open device: %v", err)
	}
	l, _, err := Open(dev, CostModel{}, nil)
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	if err := l.Reset(0, 0); err != nil {
		t.Fatalf("reset: %v", err)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		lsn, end, err := l.Append(txnOps(i))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		last = lsn
		if err := l.SyncTo(end); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatalf("reopen device: %v", err)
	}
	l2, sr, err := Open(dev2, CostModel{}, nil)
	if err != nil {
		t.Fatalf("reopen log: %v", err)
	}
	defer l2.Close()
	if len(sr.Txns) != 5 || sr.LastLSN != last || sr.Torn {
		t.Fatalf("file reopen: %+v", sr)
	}
}

func TestStats(t *testing.T) {
	dev := NewMemDevice()
	l, _, err := Open(dev, CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Reset(0, 0); err != nil {
		t.Fatalf("reset: %v", err)
	}
	_, end, err := l.Append(txnOps(0))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.SyncTo(end); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := l.SyncTo(end); err != nil { // already covered: a join
		t.Fatalf("sync join: %v", err)
	}
	st := l.Stats()
	if st.Appends != 1 || st.Fsyncs != 1 || st.FsyncJoins != 1 || st.Resets != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.AppendedBytes <= 0 {
		t.Fatalf("no appended bytes accounted: %+v", st)
	}
}

// TestCrashDevice exercises the journal/materialize used by the WAL
// crash matrix.
func TestCrashDevice(t *testing.T) {
	cd := NewCrashDevice()
	l, _, err := Open(cd, CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Reset(0, 0); err != nil {
		t.Fatalf("reset: %v", err)
	}
	for i := 0; i < 3; i++ {
		_, end, err := l.Append(txnOps(i))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := l.SyncTo(end); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	total := cd.Len()
	seen := -1
	for n := 0; n <= total; n++ {
		for _, torn := range []int{0, 1, cd.NextWriteLen(n) / 2} {
			if torn > 0 && cd.NextWriteLen(n) == 0 {
				continue
			}
			_, sr, err := Open(cd.Materialize(n, torn), CostModel{}, nil)
			if err != nil {
				t.Fatalf("cut %d torn %d: %v", n, torn, err)
			}
			if torn == 0 {
				if len(sr.Txns) < seen {
					t.Fatalf("cut %d: replayable txns shrank from %d to %d", n, seen, len(sr.Txns))
				}
				seen = len(sr.Txns)
			}
			if len(sr.Txns) > 3 {
				t.Fatalf("cut %d torn %d: phantom txns: %d", n, torn, len(sr.Txns))
			}
		}
	}
	if seen != 3 {
		t.Fatalf("full journal replay found %d txns, want 3", seen)
	}
}

func TestConcurrentCommitters(t *testing.T) {
	l, dev := openEmpty(t)
	const (
		workers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, end, err := l.Append(txnOps(w*1000 + i))
				if err != nil {
					errc <- err
					return
				}
				if err := l.SyncTo(end); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("worker: %v", err)
	}
	_, sr, err := Open(NewMemDeviceFrom(dev.Bytes()), CostModel{}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(sr.Txns) != workers*each || sr.Torn {
		t.Fatalf("reopen found %d txns (torn=%v), want %d", len(sr.Txns), sr.Torn, workers*each)
	}
	st := l.Stats()
	if st.Fsyncs+st.FsyncJoins < workers*each {
		t.Fatalf("fsyncs %d + joins %d < %d commits", st.Fsyncs, st.FsyncJoins, workers*each)
	}
}

// TestScanZeroTail: zeros past the last commit are free space (a
// FileDevice's preallocated tail), not a torn tail; one non-zero byte
// anywhere in them is.
func TestScanZeroTail(t *testing.T) {
	l, dev := openEmpty(t)
	var end int64
	for i := 0; i < 3; i++ {
		var err error
		if _, end, err = l.Append(txnOps(i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	const pad = 600
	padded := append(dev.Bytes(), make([]byte, pad)...)
	re, sr, err := Open(NewMemDeviceFrom(padded), CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if sr.Torn || len(sr.Txns) != 3 || sr.ValidEnd != end || re.Size() != end {
		t.Fatalf("zero tail: torn=%v txns=%d ValidEnd=%d size=%d; want false, 3, %d, %d",
			sr.Torn, len(sr.Txns), sr.ValidEnd, re.Size(), end, end)
	}
	for i := len(padded) - pad; i < len(padded); i++ {
		dirty := append([]byte(nil), padded...)
		dirty[i] = 1
		_, sr, err := Open(NewMemDeviceFrom(dirty), CostModel{}, nil)
		if err != nil {
			t.Fatalf("byte %d: open: %v", i, err)
		}
		if !sr.Torn || len(sr.Txns) != 3 || sr.ValidEnd != end {
			t.Fatalf("non-zero byte at %d: torn=%v txns=%d ValidEnd=%d; want true, 3, %d",
				i, sr.Torn, len(sr.Txns), sr.ValidEnd, end)
		}
	}
	// A header followed by nothing but zeros is an empty, untorn log.
	_, sr, err = Open(NewMemDeviceFrom(append(padded[:HeaderSize:HeaderSize], make([]byte, pad)...)), CostModel{}, nil)
	if err != nil || !sr.HeaderOK || sr.Torn || len(sr.Txns) != 0 || sr.ValidEnd != HeaderSize {
		t.Fatalf("header + zeros: sr=%+v err=%v", sr, err)
	}
}

// holdSyncDev blocks the first Sync after hold is set until hold is
// closed; every other Sync returns at once. It counts Sync calls.
type holdSyncDev struct {
	*MemDevice
	mu            sync.Mutex
	hold, entered chan struct{}
	syncs         atomic.Int64
}

func (d *holdSyncDev) Sync() error {
	d.syncs.Add(1)
	d.mu.Lock()
	hold, entered := d.hold, d.entered
	d.hold = nil
	d.mu.Unlock()
	if hold != nil {
		close(entered)
		<-hold
	}
	return nil
}

// TestResetDuringGroupSync: a Reset that runs while a group-fsync leader
// is inside the device sync must keep the leader from publishing its
// pre-Reset offset, or the next commit — appended at the header, below
// that offset — is acknowledged without any device sync.
func TestResetDuringGroupSync(t *testing.T) {
	dev := &holdSyncDev{MemDevice: NewMemDevice()}
	l, _, err := Open(dev, CostModel{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Reset(0, 0); err != nil {
		t.Fatalf("reset: %v", err)
	}
	lsn, end, err := l.Append(txnOps(0))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	hold := make(chan struct{})
	dev.mu.Lock()
	dev.hold, dev.entered = hold, make(chan struct{})
	entered := dev.entered
	dev.mu.Unlock()
	leader := make(chan error, 1)
	go func() { leader <- l.SyncTo(end) }()
	<-entered

	if err := l.Reset(lsn, 1); err != nil { // its own Sync passes through
		t.Fatalf("reset: %v", err)
	}
	_, endB, err := l.Append(txnOps(1))
	if err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	if endB > end {
		t.Fatalf("post-reset commit ends at %d, past the leader's %d: the test needs it below", endB, end)
	}
	before := dev.syncs.Load()
	follower := make(chan error, 1)
	go func() { follower <- l.SyncTo(endB) }() // may park behind the leader
	close(hold)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-follower; err != nil {
		t.Fatalf("post-reset commit: %v", err)
	}
	if dev.syncs.Load() == before {
		t.Fatal("post-reset commit acknowledged with no device sync: the stale leader published its pre-Reset offset")
	}
}

// TestAppendAllocs: Append marshals every frame straight into the log's
// reused buffer, so a warm log on a MemDevice with spare capacity
// appends without allocating.
func TestAppendAllocs(t *testing.T) {
	l, _ := openEmpty(t)
	ops := []Op{
		{Key: []byte("key-0001"), Data: bytes.Repeat([]byte{'v'}, 100)},
		{Key: []byte("key-0002"), Data: bytes.Repeat([]byte{'w'}, 100)},
		{Delete: true, Key: []byte("key-0003")},
	}
	for i := 0; i < 200; i++ {
		if _, _, err := l.Append(ops); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Reset(l.LastLSN(), 1); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, _, err := l.Append(ops); err != nil {
			t.Fatalf("append: %v", err)
		}
	}); a != 0 {
		t.Fatalf("Append allocates %.1f times per call, want 0", a)
	}
}
