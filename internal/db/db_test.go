package db

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"unixhash/internal/core"
)

// implementors are the two DB shapes every contract test runs over: a
// single table, and a two-shard database with its one write-ahead log.
// An empty path is memory-resident for both.
var implementors = []struct {
	name string
	open func(path string) (DB, error)
}{
	{"hash", func(path string) (DB, error) { return Open(path, Hash, nil) }},
	{"sharded", func(path string) (DB, error) {
		return OpenSharded(path, 2, &Config{Hash: &core.Options{WAL: true}})
	}},
}

func TestUniformInterface(t *testing.T) {
	for _, im := range implementors {
		t.Run(im.name, func(t *testing.T) {
			d, err := im.open("")
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			if err := d.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			got, err := d.Get([]byte("k"))
			if err != nil || string(got) != "v" {
				t.Fatalf("Get = %q, %v", got, err)
			}
			if _, err := d.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get missing = %v", err)
			}
			if err := d.PutNew([]byte("k"), nil); !errors.Is(err, ErrKeyExists) {
				t.Fatalf("PutNew dup = %v", err)
			}
			if err := d.Delete([]byte("k")); err != nil {
				t.Fatal(err)
			}
			if err := d.Delete([]byte("k")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete = %v", err)
			}
			if d.Len() != 0 {
				t.Fatalf("Len = %d", d.Len())
			}
		})
	}
}

// TestApplicationIndependence runs the identical application workload
// against every DB shape and a map model of it — the paper's claim that
// applications are "largely independent of the database type".
func TestApplicationIndependence(t *testing.T) {
	for _, im := range implementors {
		d, err := im.open("")
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]string{}
		rng := rand.New(rand.NewSource(77)) // same seed for every shape
		for op := 0; op < 5000; op++ {
			k := []byte(fmt.Sprintf("k%04d", rng.Intn(700)))
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", op)
				if err := d.Put(k, []byte(v)); err != nil {
					t.Fatalf("%s Put: %v", im.name, err)
				}
				model[string(k)] = v
			case 2:
				if err := d.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s Delete: %v", im.name, err)
				}
				delete(model, string(k))
			}
		}
		final := map[string]string{}
		c := d.Seq()
		for c.Next() {
			final[string(c.Key())] = string(c.Value())
		}
		if c.Err() != nil {
			t.Fatalf("%s scan: %v", im.name, c.Err())
		}
		if len(final) != d.Len() {
			t.Fatalf("%s: scan %d vs Len %d", im.name, len(final), d.Len())
		}
		d.Close()
		// Identical operations must leave identical contents.
		if len(final) != len(model) {
			t.Fatalf("%s has %d pairs, model %d", im.name, len(final), len(model))
		}
		for k, v := range model {
			if final[k] != v {
				t.Fatalf("divergence at %q: %s %q, model %q", k, im.name, final[k], v)
			}
		}
	}
}

func TestPersistenceAllMethods(t *testing.T) {
	dir := t.TempDir()
	for _, im := range implementors {
		t.Run(im.name, func(t *testing.T) {
			path := filepath.Join(dir, im.name+".db")
			d, err := im.open(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("key%03d", i))
				if err := d.Put(k, []byte(fmt.Sprintf("val%d", i))); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			d, err = im.open(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d.Close()
			if d.Len() != 100 {
				t.Fatalf("Len after reopen = %d", d.Len())
			}
			got, err := d.Get([]byte("key042"))
			if err != nil || string(got) != "val42" {
				t.Fatalf("Get after reopen = %q, %v", got, err)
			}
		})
	}
}

// TestSeqOrderProperties: a scan visits every pair exactly once, in no
// promised order.
func TestSeqOrderProperties(t *testing.T) {
	const n = 2000
	for _, im := range implementors {
		d, err := im.open("")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := d.Put([]byte(fmt.Sprintf("key%05d", i)), nil); err != nil {
				t.Fatal(err)
			}
		}
		c := d.Seq()
		seen := map[string]bool{}
		for c.Next() {
			if seen[string(c.Key())] {
				t.Fatalf("%s scan yielded %q twice", im.name, c.Key())
			}
			seen[string(c.Key())] = true
		}
		if c.Err() != nil || len(seen) != n {
			t.Fatalf("%s scan: %d, %v", im.name, len(seen), c.Err())
		}
		d.Close()
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := Open("", Method(99), nil); err == nil {
		t.Fatal("opened unknown method")
	}
}
