package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"unixhash/internal/core"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
	"unixhash/internal/wal"
)

// dirNames lists a directory, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// wantClosedDir asserts a closed sharded directory holds exactly its
// marker, the one log (at header size: a graceful close checkpoints) and
// the shard files — no stray per-shard sidecar.
func wantClosedDir(t *testing.T, dir string, nshards int, logged bool) {
	t.Helper()
	want := []string{shardMarker}
	for i := 0; i < nshards; i++ {
		want = append(want, filepath.Base(shardPath(dir, i)))
	}
	if logged {
		want = append(want, logName)
	}
	sort.Strings(want)
	if got := dirNames(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("closed directory holds %v, want exactly %v", got, want)
	}
	if logged {
		if fi, err := os.Stat(filepath.Join(dir, logName)); err != nil || fi.Size() != wal.HeaderSize {
			t.Fatalf("log after a graceful close: %v bytes (%v), want the %d-byte header", fi.Size(), err, wal.HeaderSize)
		}
	}
}

func TestShardedDirectoryLayout(t *testing.T) {
	walCfg := &Config{Hash: &core.Options{WAL: true}}
	dir := filepath.Join(t.TempDir(), "d")
	s, err := OpenSharded(dir, 3, walCfg)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Begin()
	for i := 0; i < 20; i++ {
		x.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantClosedDir(t, dir, 3, true)

	// The directory remembers that it logs: no option needed to get
	// transactions back, and the layout stays put across a reopen.
	s, err = OpenSharded(dir, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 20 {
		t.Fatalf("reopened Len = %d, want 20", s.Len())
	}
	if _, err := s.Begin(); err != nil {
		t.Fatalf("Begin on a reopened logging directory: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantClosedDir(t, dir, 3, true)

	// A single shard file of such a directory refuses to open on its own,
	// naming the directory, and leaves no sidecar behind.
	shard := shardPath(dir, 0)
	for _, o := range []*core.Options{nil, {WAL: true}, {ReadOnly: true}, {AllowDirty: true}} {
		_, err := core.Open(shard, o)
		if !errors.Is(err, core.ErrSharedLog) || !strings.Contains(err.Error(), dir) {
			t.Fatalf("core.Open(shard, %+v) = %v, want ErrSharedLog naming %s", o, err, dir)
		}
	}
	if _, _, err := core.Recover(shard, nil); !errors.Is(err, core.ErrSharedLog) {
		t.Fatalf("core.Recover(shard) = %v, want ErrSharedLog", err)
	}
	wantClosedDir(t, dir, 3, true)

	// Without logging there is no log file at all.
	plain := filepath.Join(t.TempDir(), "p")
	s, err = OpenSharded(plain, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantClosedDir(t, plain, 2, false)
}

// TestShardedLegacySidecars: a directory written when every shard had
// its own log — built here exactly as the parent commit would leave it
// after a crash: core tables with sidecar logs, commits in them, dropped
// without Close — opens through RecoverSharded with every commit there,
// the sidecars gone and the directory log in charge.
func TestShardedLegacySidecars(t *testing.T) {
	dir := t.TempDir()
	const n = 2
	if err := checkShardMarker(dir, n, false); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < n; i++ {
		tbl, err := core.Open(shardPath(dir, i), &core.Options{WAL: true, CacheSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			x, err := tbl.Begin()
			if err != nil {
				t.Fatal(err)
			}
			k, v := keyOnShard(i, j), fmt.Sprintf("legacy-%d-%d", i, j)
			x.Put(k, []byte(v))
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			want[string(k)] = v
		}
		// Dropped, not closed: the commits live only in the sidecar.
	}
	if fi, err := os.Stat(shardPath(dir, 0) + ".wal"); err != nil || fi.Size() <= wal.HeaderSize {
		t.Fatalf("fixture sidecar holds no commits: %v, %v", fi, err)
	}

	if _, err := OpenSharded(dir, n, nil); !errors.Is(err, core.ErrNeedsRecovery) {
		t.Fatalf("OpenSharded on a crashed legacy directory = %v, want ErrNeedsRecovery", err)
	}
	s, reports, err := RecoverSharded(dir, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep.WALTxns != 3 {
			t.Errorf("shard %d report %v, want 3 sidecar txns replayed", i, rep)
		}
	}
	if got := readSharded(t, s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("migrated directory holds %v, want %v", got, want)
	}
	// It is a directory-log database now: a cross-shard commit works...
	x, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	x.Put(keyOnShard(0, 7), []byte("new"))
	x.Put(keyOnShard(1, 7), []byte("new"))
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and nothing of the old layout is left.
	wantClosedDir(t, dir, n, true)

	// A cleanly closed legacy directory (checkpointed sidecars — what the
	// benchmark's traced stack leaves) migrates on a plain open.
	dir2 := t.TempDir()
	for i := 0; i < n; i++ {
		tbl, err := core.Open(shardPath(dir2, i), &core.Options{WAL: true})
		if err != nil {
			t.Fatal(err)
		}
		tbl.Put(keyOnShard(i, 0), []byte("v"))
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err = OpenSharded(dir2, n, &Config{Hash: &core.Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Fatalf("migrated clean directory Len = %d, want %d", s.Len(), n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantClosedDir(t, dir2, n, true)
}

// TestShardedStatsCountTheLogOnce: one log, so its figures appear once;
// TxnCommits counts wire transactions; a shard reports its own stamps
// and no log I/O; the ledger is charged each WAL phase once per commit.
func TestShardedStatsCountTheLogOnce(t *testing.T) {
	s, err := OpenSharded("", 4, &Config{Hash: &core.Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const txns = 10
	var led oplog.Ledger
	for i := 0; i < txns; i++ {
		led.StartOp(oplog.CmdTxn, nil)
		x, err := s.BeginOp(&led)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ { // 8 keys: every shard, almost surely
			x.Put([]byte(fmt.Sprintf("t%d-%d", i, j)), []byte("v"))
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		led.Finish()
		if n := led.PhaseCount(oplog.PhaseWALMarshal); n != 1 {
			t.Fatalf("wal_marshal charged %d times for one transaction", n)
		}
		if n := led.PhaseCount(oplog.PhaseWALFsyncLead) + led.PhaseCount(oplog.PhaseWALFsyncJoin); n != 1 {
			t.Fatalf("wal fsync charged %d times for one transaction", n)
		}
		if led.PhaseCount(oplog.PhaseLatchWait) == 0 {
			t.Fatal("latch_wait not charged to the transaction's ledger")
		}
	}
	if _, err := s.Get([]byte("t0-0")); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	h := st.Hash
	if h.TxnCommits != txns || h.WalAppends != txns || h.WalFsyncs != txns {
		t.Fatalf("aggregate: %d commits, %d appends, %d fsyncs; want %d of each", h.TxnCommits, h.WalAppends, h.WalFsyncs, txns)
	}
	if h.Gets != 1 {
		// Registry counters are database-wide: taken once, not per shard.
		t.Fatalf("aggregate Gets = %d, want 1", h.Gets)
	}
	if h.WalLastLSN == 0 || h.WalCheckpointLag != h.WalLastLSN-h.WalLSN || h.WalAppliedLSN != h.WalLastLSN {
		t.Fatalf("aggregate LSNs: checkpoint %d, applied %d, last %d, lag %d", h.WalLSN, h.WalAppliedLSN, h.WalLastLSN, h.WalCheckpointLag)
	}
	for i, sh := range st.Shards {
		g := sh.Hash
		if g.WalAppends != 0 || g.WalFsyncs != 0 || g.WalFsyncJoins != 0 || g.WalAppendedBytes != 0 || g.WalLastLSN != 0 || g.WalCheckpointLag != 0 {
			t.Errorf("shard %d claims log I/O of its own: %+v", i, g)
		}
		if g.WalAppliedLSN == 0 || g.WalAppliedLSN > h.WalLastLSN {
			t.Errorf("shard %d applied LSN %d, log last %d", i, g.WalAppliedLSN, h.WalLastLSN)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Stats()
	if st.Hash.WalCheckpointLag != 0 || st.Hash.WalLSN != h.WalLastLSN {
		t.Fatalf("after a checkpoint: lag %d, checkpoint %d (want 0, %d)", st.Hash.WalCheckpointLag, st.Hash.WalLSN, h.WalLastLSN)
	}
	for i, sh := range st.Shards {
		if sh.Hash.WalLSN != h.WalLastLSN {
			t.Errorf("shard %d stamped %d, want the common checkpoint %d", i, sh.Hash.WalLSN, h.WalLastLSN)
		}
	}
}

// resetWatch sits between the log and its device and checks, at every
// log reset, that no commit is between its append and its last apply:
// the appends the device has seen must all be counted as commits.
type resetWatch struct {
	*wal.CrashDevice
	appends  atomic.Int64
	commits  func() int64
	inflight atomic.Int64 // resets that caught a commit in flight
	resets   atomic.Int64
}

func (d *resetWatch) WriteAt(p []byte, off int64) (int, error) {
	if off >= wal.HeaderSize {
		d.appends.Add(1)
	}
	return d.CrashDevice.WriteAt(p, off)
}

func (d *resetWatch) Truncate(size int64) error {
	if size == 0 && d.commits != nil {
		d.resets.Add(1)
		if d.appends.Load() != d.commits() {
			d.inflight.Add(1)
		}
	}
	return d.CrashDevice.Truncate(size)
}

// TestShardedCommitCheckpointStress (run it under -race): committers on
// overlapping shards, concurrent Sync checkpoints and readers. At random
// quiescent moments the three journals are snapshotted as a power cut;
// every snapshot must recover with every acknowledged transaction whole.
func TestShardedCommitCheckpointStress(t *testing.T) {
	const committers, perCommitter, nshards = 4, 120, 3
	dev := &resetWatch{CrashDevice: wal.NewCrashDevice()}
	crash := make([]*pagefile.CrashStore, nshards)
	stores := make([]pagefile.Store, nshards)
	for i := range stores {
		crash[i] = pagefile.NewCrash(pagefile.NewMem(256, pagefile.CostModel{}))
		stores[i] = crash[i]
	}
	cfg := &Config{Hash: &core.Options{Bsize: 256, Ffactor: 8, CacheSize: 4 << 20, WALDevice: dev}}
	s, _, err := openSharded("", nshards, cfg, stores, false)
	if err != nil {
		t.Fatal(err)
	}
	dev.commits = s.commits.Load

	// A transaction of committer w writes its sequence number under three
	// keys (which land on whatever shards they hash to).
	keys := func(w int) [3][]byte {
		return [3][]byte{[]byte(fmt.Sprintf("w%d-a", w)), []byte(fmt.Sprintf("w%d-b", w)), []byte(fmt.Sprintf("w%d-c", w))}
	}
	type snapshot struct {
		s     [nshards]int
		d     int
		acked [committers]int64
	}
	var (
		gate  sync.RWMutex // committers share it; a snapshot takes it whole
		acked [committers]atomic.Int64
		snaps []snapshot
		stop  atomic.Bool
		wg    sync.WaitGroup
		bg    sync.WaitGroup
	)
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ks := keys(w)
			for seq := int64(1); seq <= perCommitter; seq++ {
				gate.RLock()
				x, err := s.Begin()
				if err == nil {
					for _, k := range ks {
						x.Put(k, []byte(strconv.FormatInt(seq, 10)))
					}
					err = x.Commit()
				}
				if err == nil {
					acked[w].Store(seq)
				}
				gate.RUnlock()
				if err != nil {
					t.Errorf("committer %d seq %d: %v", w, seq, err)
					return
				}
			}
		}(w)
	}
	bg.Add(2)
	go func() { // checkpoints, racing the commits; now and then a power cut
		defer bg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := s.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
			if i%3 == 0 {
				gate.Lock()
				var sn snapshot
				for j, cs := range crash {
					sn.s[j] = cs.Len()
				}
				sn.d = dev.Len()
				for w := range acked {
					sn.acked[w] = acked[w].Load()
				}
				snaps = append(snaps, sn)
				gate.Unlock()
			}
		}
	}()
	go func() { // readers: a committed key always parses and never goes back
		defer bg.Done()
		var last [committers]int64
		for !stop.Load() {
			for w := 0; w < committers; w++ {
				v, err := s.Get(keys(w)[0])
				if errors.Is(err, ErrNotFound) {
					continue
				}
				n, perr := strconv.ParseInt(string(v), 10, 64)
				if err != nil || perr != nil || n < last[w] {
					t.Errorf("reader: w%d = %q (%v), last saw %d", w, v, err, last[w])
					return
				}
				last[w] = n
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	bg.Wait()

	if n := dev.inflight.Load(); n != 0 {
		t.Fatalf("%d of %d log resets ran with a commit in flight", n, dev.resets.Load())
	}
	// One more cut at the very end: the database abandoned, no Close.
	var end snapshot
	for j, cs := range crash {
		end.s[j] = cs.Len()
	}
	end.d = dev.Len()
	for w := range acked {
		end.acked[w] = acked[w].Load()
	}
	snaps = append(snaps, end)
	t.Logf("%d commits, %d checkpoint resets, %d power cuts", s.commits.Load(), dev.resets.Load(), len(snaps))

	for i, sn := range snaps {
		ms := make([]pagefile.Store, nshards)
		for j, cs := range crash {
			m, err := cs.Materialize(sn.s[j], 0)
			if err != nil {
				t.Fatal(err)
			}
			ms[j] = m
		}
		rcfg := *cfg
		rcfg.Hash = &core.Options{Bsize: 256, Ffactor: 8, CacheSize: 4 << 20, WALDevice: dev.Materialize(sn.d, 0)}
		r, _, err := openSharded("", nshards, &rcfg, ms, true)
		if err != nil {
			t.Fatalf("power cut %d: recover: %v", i, err)
		}
		for w := 0; w < committers; w++ {
			for _, k := range keys(w) {
				v, err := r.Get(k)
				if sn.acked[w] == 0 && errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil || string(v) != strconv.FormatInt(sn.acked[w], 10) {
					t.Fatalf("power cut %d: %s = %q (%v), acknowledged %d", i, k, v, err, sn.acked[w])
				}
			}
		}
		r.Close()
	}
}
