package db

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"unixhash/internal/core"
)

func TestMethodString(t *testing.T) {
	cases := map[Method]string{Hash: "hash", Method(42): "method(42)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestSyncAllMethods(t *testing.T) {
	dir := t.TempDir()
	for _, im := range implementors {
		t.Run(im.name, func(t *testing.T) {
			path := filepath.Join(dir, "sync-"+im.name)
			d, err := im.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			k := []byte("key")
			if err := d.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := d.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			// A copy taken while the writer is open sees the synced data.
			check, err := im.open(snapshot(t, path))
			if err != nil {
				t.Fatalf("second open: %v", err)
			}
			defer check.Close()
			if got, err := check.Get(k); err != nil || string(got) != "v" {
				t.Fatalf("synced read = %q, %v", got, err)
			}
		})
	}
}

func TestConfigPassedThrough(t *testing.T) {
	// A tiny page size from the config must reach the hash engine: a
	// pair larger than one 64-byte page forces the big-pair path, which
	// only exists below it.
	d, err := Open("", Hash, &Config{Hash: &core.Options{Bsize: 64, Ffactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	big := make([]byte, 4096)
	if err := d.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get([]byte("big"))
	if err != nil || len(got) != len(big) {
		t.Fatalf("Get big = %d bytes, %v", len(got), err)
	}
}

// TestCompact: Compact rebuilds a single table into a new file with the
// source's geometry and every live pair, and a sharded database refuses.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(filepath.Join(dir, "src.db"), Hash, &Config{Hash: &core.Options{Bsize: 512, Ffactor: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 1000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 2 {
		if err := d.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	dst := filepath.Join(dir, "dst.db")
	if err := Compact(d, dst); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dst, Hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 500 {
		t.Fatalf("compacted Len = %d, want 500", c.Len())
	}
	if v, err := c.Get([]byte("k0999")); err != nil || string(v) != "v999" {
		t.Fatalf("compacted Get = %q, %v", v, err)
	}
	s, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.PageSize != 512 {
		t.Fatalf("compacted page size = %d, want the source's 512", s.PageSize)
	}
	if err := Verify(c); err != nil {
		t.Fatal(err)
	}

	sh, err := OpenSharded("", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if err := Compact(sh, filepath.Join(dir, "sh.db")); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Compact on sharded = %v, want ErrUnsupported", err)
	}
}
