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
	for _, tool := range []string{"hashdump", "dbcli", "hashbench"} {
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
	run("hashdump", 0, "-check", compacted)
	if out := run("dbcli", 0, "-telemetry", "127.0.0.1:0", db, "count"); !strings.Contains(out, "dbcli: telemetry http://") {
		t.Fatalf("dbcli -telemetry = %q", out)
	}

	// hashdump over the same file.
	if out := run("hashdump", 0, "-check", db); strings.TrimSpace(out) != "ok" {
		t.Fatalf("hashdump -check = %q", out)
	}
	if out := run("hashdump", 0, "-stats", db); !strings.Contains(out, "keys:") {
		t.Fatalf("hashdump -stats = %q", out)
	}
	if out := run("hashdump", 0, "-v", db); !strings.Contains(out, "hash table:") {
		t.Fatalf("hashdump -v = %q", out)
	}
	run("hashdump", 1, "-check", filepath.Join(dir, "missing.db"))

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
	run("hashdump", 0, "-check", bulk)

	// hashbench smoke: one small figure end to end.
	out = run("hashbench", 0, "-n", "500", "fig7")
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "page I/Os") {
		t.Fatalf("hashbench fig7 output:\n%s", out)
	}
}

// TestCLICrashAndCorruptionDetection builds the inspection tools and
// verifies they detect — loudly, with nonzero exits — every class of
// damaged hash file: crash-dirty, corrupted pair bytes, torn header,
// and truncation. It also exercises hashdump -recover end to end.
func TestCLICrashAndCorruptionDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"hashdump", "dbcli"} {
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
	const bsize = 256 // headerSize 276 -> 2 header pages
	nkeys := 60

	// A healthy, cleanly closed file both tools accept.
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
	run("hashdump", 0, "-check", clean)
	run("dbcli", 0, clean, "verify")

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
		if out := run("hashdump", 1, "-check", p); strings.TrimSpace(out) == "ok" {
			t.Fatalf("hashdump -check accepted %s", p)
		}
		if out := run("dbcli", 1, p, "verify"); strings.TrimSpace(out) == "ok" {
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

	if out := run("hashdump", 1, "-check", dirty); !strings.Contains(out, "recover") {
		t.Fatalf("hashdump -check on dirty file: %q", out)
	}
	run("dbcli", 1, dirty, "verify")
	if out := run("hashdump", 0, "-recover", dirty); !strings.Contains(out, "recovered") {
		t.Fatalf("hashdump -recover: %q", out)
	}
	run("hashdump", 0, "-check", dirty)
	run("dbcli", 0, dirty, "verify")
	if out := run("dbcli", 0, dirty, "count"); strings.TrimSpace(out) != "50" {
		t.Fatalf("recovered count = %q, want 50", out)
	}
	// Recovering an already-clean file is a no-op that reports clean.
	if out := run("hashdump", 0, "-recover", clean); !strings.Contains(out, "clean") {
		t.Fatalf("hashdump -recover on clean file: %q", out)
	}
}
