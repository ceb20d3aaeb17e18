package unixhash

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"unixhash/internal/core"
)

// TestCLIEndToEnd builds the command-line tools and exercises each one
// against real files — the integration layer the unit tests cannot see.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"dbcli", "hashbench"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	run := func(tool string, want int, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s %v: %v", tool, args, err)
		}
		if code != want {
			t.Fatalf("%s %v: exit %d (want %d)\n%s", tool, args, code, want, out)
		}
		return string(out)
	}

	dir := t.TempDir()
	db := filepath.Join(dir, "cli.db")

	// dbcli: the full verb set.
	run("dbcli", 0, db, "put", "alpha", "1")
	run("dbcli", 0, db, "put", "beta", "2")
	run("dbcli", 0, db, "putnew", "gamma", "3")
	if out := run("dbcli", 1, db, "putnew", "gamma", "3x"); !strings.Contains(out, "exists") {
		t.Fatalf("putnew dup output: %q", out)
	}
	if out := run("dbcli", 0, db, "get", "beta"); strings.TrimSpace(out) != "2" {
		t.Fatalf("get = %q", out)
	}
	run("dbcli", 0, db, "has", "alpha")
	run("dbcli", 1, db, "has", "nope")
	if out := run("dbcli", 0, db, "count"); strings.TrimSpace(out) != "3" {
		t.Fatalf("count = %q", out)
	}
	out := run("dbcli", 0, db, "list")
	for _, want := range []string{"alpha\t1", "beta\t2", "gamma\t3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list missing %q:\n%s", want, out)
		}
	}
	run("dbcli", 0, db, "del", "beta")
	run("dbcli", 1, db, "get", "beta")
	compacted := filepath.Join(dir, "compacted.db")
	run("dbcli", 0, db, "compact", compacted)
	if out := run("dbcli", 0, compacted, "count"); strings.TrimSpace(out) != "2" {
		t.Fatalf("compacted count = %q", out)
	}
	run("dbcli", 0, compacted, "verify")
	if out := run("dbcli", 0, "-telemetry", "127.0.0.1:0", db, "count"); !strings.Contains(out, "dbcli: telemetry http://") {
		t.Fatalf("dbcli -telemetry = %q", out)
	}

	// The inspection verbs over the same file.
	if out := run("dbcli", 0, db, "verify"); strings.TrimSpace(out) != "ok" {
		t.Fatalf("dbcli verify = %q", out)
	}
	if out := run("dbcli", 0, db, "stats"); !strings.Contains(out, "keys:") || !strings.Contains(out, "chain lengths:") {
		t.Fatalf("dbcli stats = %q", out)
	}
	if out := run("dbcli", 0, "-v", db, "dump"); !strings.Contains(out, "hash table:") || !strings.Contains(out, `"alpha"`) {
		t.Fatalf("dbcli -v dump = %q", out)
	}
	if out := run("dbcli", 0, "-v", db, "heatmap"); !strings.Contains(out, "fill histogram:") || !strings.Contains(out, "bucket  entries") {
		t.Fatalf("dbcli -v heatmap = %q", out)
	}
	run("dbcli", 1, filepath.Join(dir, "missing.db"), "verify")

	// The batched load verb: a KEY<TAB>VALUE file imported, then read
	// back through the normal verbs.
	tsv := filepath.Join(dir, "load.tsv")
	if err := os.WriteFile(tsv, []byte("lk1\tlv1\nlk2\tlv2\nlk3\tlv3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bulk := filepath.Join(dir, "bulk.db")
	if out := run("dbcli", 0, bulk, "load", tsv); strings.TrimSpace(out) != "3" {
		t.Fatalf("dbcli load = %q, want 3", out)
	}
	if out := run("dbcli", 0, bulk, "get", "lk2"); strings.TrimSpace(out) != "lv2" {
		t.Fatalf("get after load = %q", out)
	}
	if out := run("dbcli", 0, bulk, "count"); strings.TrimSpace(out) != "3" {
		t.Fatalf("count after load = %q", out)
	}
	run("dbcli", 0, bulk, "verify")

	// hashbench smoke: one small figure end to end.
	out = run("hashbench", 0, "-n", "500", "fig7")
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "page I/Os") {
		t.Fatalf("hashbench fig7 output:\n%s", out)
	}
}

// TestCLICrashAndCorruptionDetection builds dbcli and verifies its
// inspection verbs detect — loudly, with nonzero exits — every class of
// damaged hash file: crash-dirty, corrupted pair bytes, torn header,
// and truncation. It also exercises dbcli recover end to end, on a
// crash-dirty file and on a logged table with a commit the pages lack.
func TestCLICrashAndCorruptionDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(bin, "dbcli"), "./cmd/dbcli")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build dbcli: %v\n%s", err, out)
	}
	run := func(want int, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, "dbcli"), args...)
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("dbcli %v: %v", args, err)
		}
		if code != want {
			t.Fatalf("dbcli %v: exit %d (want %d)\n%s", args, code, want, out)
		}
		return string(out)
	}

	dir := t.TempDir()
	const bsize = 256 // headerSize 276 -> 2 header pages
	nkeys := 60

	// A healthy, cleanly closed file verify accepts.
	clean := filepath.Join(dir, "clean.db")
	tbl, err := core.Open(clean, &core.Options{Bsize: bsize, Ffactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nkeys; i++ {
		if err := tbl.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	run(0, clean, "verify")

	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	fixture := func(name string, mutate func([]byte) []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	damaged := []string{
		// Stored pair bytes flipped near the end of every data page: the
		// pair fingerprint (or placement) no longer matches the header.
		fixture("pairbytes.db", func(b []byte) []byte {
			for off := 2*bsize + bsize - 5; off < len(b); off += bsize {
				b[off] ^= 0x5A
			}
			return b
		}),
		// One header byte flipped without fixing the checksum: a torn
		// header write, rejected by the CRC before any field is trusted.
		fixture("tornheader.db", func(b []byte) []byte {
			b[40] ^= 0x01
			return b
		}),
		// Truncated mid-page: not even a whole number of pages.
		fixture("truncated.db", func(b []byte) []byte { return b[:len(b)-100] }),
		// Truncated to the bare header: every stored pair is gone but the
		// header still claims them.
		fixture("headeronly.db", func(b []byte) []byte { return b[:2*bsize] }),
	}
	for _, p := range damaged {
		if out := run(1, p, "verify"); strings.TrimSpace(out) == "ok" {
			t.Fatalf("dbcli verify accepted %s", p)
		}
	}

	// A crash-dirty file: synced contents plus a durable dirty mark (the
	// post-mark mutation never left the buffer pool, as after a power
	// cut). Snapshot the file bytes while the writer is still live.
	work := filepath.Join(dir, "work.db")
	wt, err := core.Open(work, &core.Options{Bsize: bsize, Ffactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := wt.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := wt.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wt.Put([]byte("unsynced"), []byte("lost")); err != nil {
		t.Fatal(err)
	}
	dirtyRaw, err := os.ReadFile(work)
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.Close(); err != nil {
		t.Fatal(err)
	}
	dirty := filepath.Join(dir, "dirty.db")
	if err := os.WriteFile(dirty, dirtyRaw, 0o644); err != nil {
		t.Fatal(err)
	}

	if out := run(1, dirty, "verify"); !strings.Contains(out, "recover") {
		t.Fatalf("dbcli verify on dirty file: %q", out)
	}
	if out := run(0, dirty, "stats"); !strings.Contains(out, "not cleanly closed") {
		t.Fatalf("dbcli stats on dirty file gave no warning: %q", out)
	}
	if out := run(0, dirty, "recover"); !strings.Contains(out, "recovered") {
		t.Fatalf("dbcli recover: %q", out)
	}
	run(0, dirty, "verify")
	if out := run(0, dirty, "count"); strings.TrimSpace(out) != "50" {
		t.Fatalf("recovered count = %q, want 50", out)
	}
	// Recovering an already-clean file is a no-op that reports clean.
	if out := run(0, clean, "recover"); !strings.Contains(out, "clean") {
		t.Fatalf("dbcli recover on clean file: %q", out)
	}

	// A logged table with a commit the pages never got: snapshot the
	// file and its log while the writer is still open after the commit,
	// as a power cut would leave them. recover must replay the commit.
	logged := filepath.Join(dir, "logged.db")
	lt, err := core.Open(logged, &core.Options{Bsize: bsize, Ffactor: 4, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	x, err := lt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Put([]byte("txn-key"), []byte("txn-value")); err != nil {
		t.Fatal(err)
	}
	if err := x.Put([]byte("txn-key2"), []byte("txn-value2")); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.db")
	for _, suffix := range []string{"", ".wal"} {
		b, err := os.ReadFile(logged + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashed+suffix, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}
	if out := run(0, crashed, "stats"); !strings.Contains(out, "run recover") {
		t.Fatalf("dbcli stats on an unreplayed log gave no warning: %q", out)
	}
	if out := run(0, crashed, "recover"); !strings.Contains(out, "1 txns (2 ops) replayed from the log") {
		t.Fatalf("dbcli recover on a logged table: %q", out)
	}
	if out := run(0, crashed, "get", "txn-key"); strings.TrimSpace(out) != "txn-value" {
		t.Fatalf("get after log replay = %q, want txn-value", out)
	}
	run(0, crashed, "verify")
}

// TestCLIReadOnlyWritesNothing: every read-only dbcli verb leaves the
// directory exactly as it found it — same names, same bytes — on a plain
// file, on a logged file, and on a logged file whose sidecar log is gone
// (a read-only open reads a missing log as empty and never creates one).
func TestCLIReadOnlyWritesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "dbcli")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dbcli").CombinedOutput(); err != nil {
		t.Fatalf("build dbcli: %v\n%s", err, out)
	}
	run := func(args ...string) {
		t.Helper()
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("dbcli %v: %v\n%s", args, err, out)
		}
	}
	// snapshot maps every file name in dir to its bytes.
	snapshot := func(dir string) map[string]string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	for _, tc := range []struct {
		name  string
		setup func(db string)
	}{
		{"plain", func(db string) { run(db, "put", "a", "1") }},
		{"logged", func(db string) { run("-wal", db, "txn", "put", "a", "1") }},
		{"logged-sidecar-gone", func(db string) {
			run("-wal", db, "txn", "put", "a", "1")
			if err := os.Remove(db + ".wal"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := filepath.Join(dir, "r.db")
			tc.setup(db)
			before := snapshot(dir)
			for _, verb := range [][]string{
				{"get", "a"}, {"has", "a"}, {"list"}, {"count"},
				{"stats"}, {"verify"}, {"heatmap"}, {"dump"},
			} {
				run(append([]string{db}, verb...)...)
				after := snapshot(dir)
				for name, b := range after {
					if old, ok := before[name]; !ok {
						t.Fatalf("%v created %s (%d bytes)", verb, name, len(b))
					} else if old != b {
						t.Fatalf("%v changed %s", verb, name)
					}
				}
				if len(after) != len(before) {
					t.Fatalf("%v removed a file: %d files, was %d", verb, len(after), len(before))
				}
			}
		})
	}
}
