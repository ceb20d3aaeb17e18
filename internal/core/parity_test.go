package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"unixhash/internal/metrics"
	"unixhash/internal/pagefile"
	"unixhash/internal/trace"
	"unixhash/internal/wal"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// golden compares got with testdata/name, or rewrites the file with -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// observed renders every hash_* and wal_* series of snap, one line each,
// sorted; a histogram contributes its observation count.
func observed(snap metrics.Snapshot) string {
	var lines []string
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "hash_") || strings.HasPrefix(name, "wal_") {
			lines = append(lines, fmt.Sprintf("%s %d", name, v))
		}
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "hash_") || strings.HasPrefix(name, "wal_") {
			lines = append(lines, fmt.Sprintf("%s %d", name, v))
		}
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "hash_") || strings.HasPrefix(name, "wal_") {
			lines = append(lines, fmt.Sprintf("%s_count %d", name, h.Count))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestObservabilityParity drives one table through a fixed workload that
// records every fact the engine counts — a presizing batch, controlled
// and uncontrolled splits, overflow allocation, reuse and free, big
// pairs, filter outcomes, a logged commit, a checkpoint — then crashes it
// and recovers the file (page walk, gate, repairs, log replay). Every
// hash_* and wal_* value of both incarnations, and every ring event's
// type and arguments in emission order, must match testdata/parity.golden:
// a change to how facts are recorded must not change what is recorded.
func TestObservabilityParity(t *testing.T) {
	tr := trace.New(1 << 14)
	dev := wal.NewMemDevice()
	ms := pagefile.NewMem(256)
	opts := func(reg *metrics.Registry) *Options {
		return &Options{Store: ms, WALDevice: dev, Bsize: 256, Ffactor: 8, CacheSize: 1 << 20, Metrics: reg, Trace: tr}
	}
	long := func(i int) []byte { return []byte(fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", 40))) }

	regA := metrics.New()
	a := mustOpen(t, "", opts(regA))
	pairs := make([]Pair, 64)
	for i := range pairs {
		pairs[i] = Pair{Key: key(i), Data: val(i)}
	}
	if err := a.PutBatch(pairs); err != nil { // presizes the empty table
		t.Fatal(err)
	}
	for i := 64; i < 400; i++ {
		data := val(i)
		if i%3 == 0 {
			data = long(i) // fuller pages: chains grow, splits turn uncontrolled
		}
		if err := a.Put(key(i), data); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte{'B'}, 1000)
	if err := a.Put([]byte("big-1"), big); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete([]byte("big-1")); err != nil { // frees the chain
		t.Fatal(err)
	}
	if err := a.Put([]byte("big-2"), big); err != nil { // reuses it
		t.Fatal(err)
	}
	for i := 0; i < 420; i += 2 {
		if _, err := a.Get(key(i)); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		if _, err := a.Get([]byte(fmt.Sprintf("absent-%d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := a.Delete(key(i * 7)); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(from int) {
		x, err := a.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := from; i < from+5; i++ {
			if err := x.Put(key(i), long(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Delete(key(from + 10)); err != nil {
			t.Fatal(err)
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(1000)
	if err := a.Sync(); err != nil { // the checkpoint
		t.Fatal(err)
	}
	commit(2000) // logged, never checkpointed: recovery replays it
	for i := 3000; i < 3020; i++ {
		if err := a.Put(key(i), val(i)); err != nil { // lost to the crash
			t.Fatal(err)
		}
	}
	snapA := regA.Snapshot()
	for _, m := range []string{MetricSplitsControlled, MetricSplitsUncontrolled, MetricOvflAllocs, MetricOvflReuses,
		MetricOvflFrees, MetricBigPairs, MetricPresizes, MetricFilterSkips, MetricTxnCommits, MetricCheckpoints} {
		if snapA.Counter(m) == 0 {
			t.Errorf("workload recorded no %s", m)
		}
	}

	// Crash: a is abandoned with its header marked dirty and its last
	// pages in memory only.
	regB := metrics.New()
	b, rep, err := Recover("", opts(regB))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !rep.Recovered || rep.WALTxns != 1 {
		t.Fatalf("recovery report %s: want a page recovery and one replayed commit", rep)
	}
	if _, err := b.Get(key(2000)); err != nil {
		t.Fatal(err)
	}
	snapB := regB.Snapshot()

	var out strings.Builder
	fmt.Fprintf(&out, "# table\n%s# recovered table\n%s# events\n", observed(snapA), observed(snapB))
	for _, e := range tr.Events(0) {
		fmt.Fprintf(&out, "%s %v\n", e.Type, e.Args)
	}
	golden(t, "parity.golden", []byte(out.String()))
}
