// Package crosstest drives every key/data store in the repository — the
// new hashing package (its table, and the db layer over one table and
// over four shards), and all five baselines — through the same operation
// stream and asserts they agree wherever they succeed.
// The paper's systems differ in interface, failure modes and layout, but
// on the operations all of them accept, they are all the same abstract
// map; this test pins that.
package crosstest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/dynahash"
	"unixhash/internal/gdbm"
	"unixhash/internal/hsearch"
	"unixhash/internal/ndbm"
	"unixhash/internal/sdbm"
)

// store is the least common denominator: put-replace, get, delete.
// ok=false from put means the implementation refused the pair (a
// documented shortcoming), not an error.
type store interface {
	name() string
	put(k, v []byte) (ok bool, err error)
	get(k []byte) ([]byte, bool, error)
	del(k []byte) (bool, error)
	close() error
}

type hashStore struct{ t *core.Table }

func (s hashStore) name() string { return "hash" }
func (s hashStore) put(k, v []byte) (bool, error) {
	return true, s.t.Put(k, v)
}
func (s hashStore) get(k []byte) ([]byte, bool, error) {
	v, err := s.t.Get(k)
	if errors.Is(err, core.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}
func (s hashStore) del(k []byte) (bool, error) {
	err := s.t.Delete(k)
	if errors.Is(err, core.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}
func (s hashStore) close() error { return s.t.Close() }

// dbStore runs the stream through the db layer: its error mapping, and
// on a sharded database the router and the per-shard fan-out.
type dbStore struct {
	label string
	d     db.DB
}

func (s dbStore) name() string { return s.label }
func (s dbStore) put(k, v []byte) (bool, error) {
	return true, s.d.Put(k, v)
}
func (s dbStore) get(k []byte) ([]byte, bool, error) {
	v, err := s.d.Get(k)
	if errors.Is(err, db.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}
func (s dbStore) del(k []byte) (bool, error) {
	err := s.d.Delete(k)
	if errors.Is(err, db.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}
func (s dbStore) close() error { return s.d.Close() }

type ndbmStore struct{ db *ndbm.DB }

func (s ndbmStore) name() string { return "ndbm" }
func (s ndbmStore) put(k, v []byte) (bool, error) {
	err := s.db.Store(k, v, true)
	if errors.Is(err, ndbm.ErrTooBig) || errors.Is(err, ndbm.ErrSplit) {
		return false, nil
	}
	return err == nil, err
}
func (s ndbmStore) get(k []byte) ([]byte, bool, error) {
	v, err := s.db.Fetch(k)
	if errors.Is(err, ndbm.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}
func (s ndbmStore) del(k []byte) (bool, error) {
	err := s.db.Delete(k)
	if errors.Is(err, ndbm.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}
func (s ndbmStore) close() error { return s.db.Close() }

type sdbmStore struct{ db *sdbm.DB }

func (s sdbmStore) name() string { return "sdbm" }
func (s sdbmStore) put(k, v []byte) (bool, error) {
	err := s.db.Store(k, v, true)
	if errors.Is(err, sdbm.ErrTooBig) || errors.Is(err, sdbm.ErrSplit) {
		return false, nil
	}
	return err == nil, err
}
func (s sdbmStore) get(k []byte) ([]byte, bool, error) {
	v, err := s.db.Fetch(k)
	if errors.Is(err, sdbm.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}
func (s sdbmStore) del(k []byte) (bool, error) {
	err := s.db.Delete(k)
	if errors.Is(err, sdbm.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}
func (s sdbmStore) close() error { return s.db.Close() }

type gdbmStore struct{ db *gdbm.DB }

func (s gdbmStore) name() string { return "gdbm" }
func (s gdbmStore) put(k, v []byte) (bool, error) {
	err := s.db.Store(k, v, true)
	if errors.Is(err, gdbm.ErrTooBig) || errors.Is(err, gdbm.ErrSplit) {
		return false, nil
	}
	return err == nil, err
}
func (s gdbmStore) get(k []byte) ([]byte, bool, error) {
	v, err := s.db.Fetch(k)
	if errors.Is(err, gdbm.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}
func (s gdbmStore) del(k []byte) (bool, error) {
	err := s.db.Delete(k)
	if errors.Is(err, gdbm.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}
func (s gdbmStore) close() error { return s.db.Close() }

type dynaStore struct{ t *dynahash.Table }

func (s dynaStore) name() string { return "dynahash" }
func (s dynaStore) put(k, v []byte) (bool, error) {
	s.t.Enter(string(k), append([]byte(nil), v...))
	return true, nil
}
func (s dynaStore) get(k []byte) ([]byte, bool, error) {
	v, ok := s.t.Find(string(k))
	return v, ok, nil
}
func (s dynaStore) del(k []byte) (bool, error) { return s.t.Delete(string(k)), nil }
func (s dynaStore) close() error               { return nil }

type hsearchStore struct{ t *hsearch.Table }

func (s hsearchStore) name() string { return "hsearch" }
func (s hsearchStore) put(k, v []byte) (bool, error) {
	err := s.t.Enter(string(k), append([]byte(nil), v...))
	if errors.Is(err, hsearch.ErrTableFull) {
		return false, nil
	}
	return err == nil, err
}
func (s hsearchStore) get(k []byte) ([]byte, bool, error) {
	v, ok := s.t.Find(string(k))
	return v, ok, nil
}
func (s hsearchStore) del(k []byte) (bool, error) {
	err := s.t.Delete(string(k))
	if errors.Is(err, hsearch.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}
func (s hsearchStore) close() error { return nil }

func openAll(t *testing.T) []store {
	t.Helper()
	ht, err := core.Open("", &core.Options{Bsize: 256, Ffactor: 8})
	if err != nil {
		t.Fatal(err)
	}
	dh, err := db.Open("", db.Hash, &db.Config{Hash: &core.Options{Bsize: 256, Ffactor: 8}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := db.OpenSharded("", 4, &db.Config{Hash: &core.Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := ndbm.Open("", &ndbm.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := sdbm.Open("", &sdbm.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := gdbm.Open("", &gdbm.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return []store{
		hashStore{ht}, dbStore{"db", dh}, dbStore{"sharded", ds}, ndbmStore{nd}, sdbmStore{sd},
		gdbmStore{gd}, dynaStore{dynahash.New(64, 0)},
		hsearchStore{hsearch.New(4000, nil)},
	}
}

// TestAllStoresAgree runs one operation stream over all eight stores.
// A per-store "present" model tracks which pairs each accepted; wherever
// a store holds a key, its value must match the stream's latest write.
func TestAllStoresAgree(t *testing.T) {
	stores := openAll(t)
	defer func() {
		for _, s := range stores {
			if err := s.close(); err != nil {
				t.Errorf("%s close: %v", s.name(), err)
			}
		}
	}()

	rng := rand.New(rand.NewSource(2026))
	latest := map[string]string{}                   // latest written value per key
	present := make([]map[string]bool, len(stores)) // which keys each store holds
	for i := range present {
		present[i] = map[string]bool{}
	}

	for op := 0; op < 4000; op++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(400))
		switch rng.Intn(4) {
		case 0, 1: // put
			v := fmt.Sprintf("val-%d", op)
			if rng.Intn(30) == 0 {
				v = string(bytes.Repeat([]byte("L"), 600)) // over ndbm/sdbm page budgets at small pages, fine elsewhere
			}
			latest[k] = v
			for i, s := range stores {
				ok, err := s.put([]byte(k), []byte(v))
				if err != nil {
					t.Fatalf("op %d: %s put: %v", op, s.name(), err)
				}
				if ok {
					present[i][k] = true
				} else {
					delete(present[i], k) // refused: store may or may not hold an older value; drop it to be safe
					_, _ = s.del([]byte(k))
				}
			}
		case 2: // delete
			delete(latest, k)
			for i, s := range stores {
				had := present[i][k]
				ok, err := s.del([]byte(k))
				if err != nil {
					t.Fatalf("op %d: %s del: %v", op, s.name(), err)
				}
				if had && !ok {
					t.Fatalf("op %d: %s lost key %q before delete", op, s.name(), k)
				}
				delete(present[i], k)
			}
		case 3: // get
			for i, s := range stores {
				v, ok, err := s.get([]byte(k))
				if err != nil {
					t.Fatalf("op %d: %s get: %v", op, s.name(), err)
				}
				if present[i][k] {
					if !ok {
						t.Fatalf("op %d: %s dropped key %q", op, s.name(), k)
					}
					if string(v) != latest[k] {
						t.Fatalf("op %d: %s[%q] = %q, want %q", op, s.name(), k, v, latest[k])
					}
				}
			}
		}
	}

	// Final sweep: every store agrees with the stream on every key it
	// accepted.
	agree := 0
	for i, s := range stores {
		for k := range present[i] {
			v, ok, err := s.get([]byte(k))
			if err != nil || !ok || string(v) != latest[k] {
				t.Fatalf("final: %s[%q] = %q, %v, %v; want %q", s.name(), k, v, ok, err, latest[k])
			}
			agree++
		}
	}
	if agree == 0 {
		t.Fatal("nothing to compare: the stream never succeeded anywhere")
	}
}
