package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

// runModel drives a table and a map oracle through the same seeded
// history, drawn over every write entry point — Put, PutNew, Delete,
// PutBatch (duplicate keys inside a batch, big pairs, values that change
// size so replaced pairs move across page boundaries) and, on a WAL
// table, Begin…Commit mixing puts and deletes of one key in both orders —
// checking Len after every step and the structural Check every 250. It
// returns the oracle for verifyModel.
func runModel(t *testing.T, tbl *Table, rng *rand.Rand, nops int) map[string][]byte {
	t.Helper()
	model := make(map[string][]byte)
	randKey := func() []byte { return []byte(fmt.Sprintf("k%05d", rng.Intn(400))) }
	randVal := func() []byte {
		i := rng.Intn(1 << 16)
		switch rng.Intn(10) {
		case 0: // big pair
			return bytes.Repeat([]byte{byte(i)}, 1000+i%3000)
		case 1, 2: // a good fraction of a page
			return bytes.Repeat([]byte{byte(i)}, 20+i%60)
		}
		return []byte(fmt.Sprintf("v%d", i))
	}
	kinds := 6
	if tbl.wal != nil {
		kinds = 7
	}

	for op := 0; op < nops; op++ {
		switch k := randKey(); rng.Intn(kinds) {
		case 0, 1: // put (twice as likely, so the table grows)
			v := randVal()
			if err := tbl.Put(k, v); err != nil {
				t.Fatalf("op %d: Put(%q): %v", op, k, err)
			}
			model[string(k)] = v
		case 2: // delete
			err := tbl.Delete(k)
			_, inModel := model[string(k)]
			if inModel && err != nil {
				t.Fatalf("op %d: Delete(%q) = %v, model has it", op, k, err)
			}
			if !inModel && !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: Delete(%q) = %v, want ErrNotFound", op, k, err)
			}
			delete(model, string(k))
		case 3: // get
			got, err := tbl.Get(k)
			want, inModel := model[string(k)]
			if inModel {
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("op %d: Get(%q) = %d bytes, %v; want %d bytes", op, k, len(got), err, len(want))
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: Get(%q) = %v, want ErrNotFound", op, k, err)
			}
		case 4: // putnew
			v := randVal()
			err := tbl.PutNew(k, v)
			if _, inModel := model[string(k)]; inModel {
				if !errors.Is(err, ErrKeyExists) {
					t.Fatalf("op %d: PutNew(%q) = %v, want ErrKeyExists", op, k, err)
				}
			} else if err != nil {
				t.Fatalf("op %d: PutNew(%q): %v", op, k, err)
			} else {
				model[string(k)] = v
			}
		case 5: // batch; every few pairs repeat the previous key
			pairs := make([]Pair, 1+rng.Intn(24))
			for i := range pairs {
				pairs[i] = Pair{Key: randKey(), Data: randVal()}
				if i > 0 && rng.Intn(4) == 0 {
					pairs[i].Key = pairs[rng.Intn(i)].Key
				}
			}
			if err := tbl.PutBatch(pairs); err != nil {
				t.Fatalf("op %d: PutBatch(%d pairs): %v", op, len(pairs), err)
			}
			for _, p := range pairs {
				model[string(p.Key)] = p.Data
			}
		case 6: // transaction; ops on one key in whichever order they fall
			x, err := tbl.Begin()
			if err != nil {
				t.Fatalf("op %d: Begin: %v", op, err)
			}
			for i, keys := 0, [][]byte{k, randKey(), randKey()}; i < 2+rng.Intn(8); i++ {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(2) == 0 {
					err = x.Delete(k)
					delete(model, string(k))
				} else {
					v := randVal()
					err = x.Put(k, v)
					model[string(k)] = v
				}
				if err != nil {
					t.Fatalf("op %d: txn op: %v", op, err)
				}
			}
			if err := x.Commit(); err != nil {
				t.Fatalf("op %d: Commit: %v", op, err)
			}
		}
		if tbl.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, model has %d", op, tbl.Len(), len(model))
		}
		if op%250 == 249 {
			if err := tbl.Check(); err != nil {
				t.Fatalf("op %d: Check: %v", op, err)
			}
		}
	}
	return model
}

// verifyModel checks full equivalence with the oracle via the iterator,
// then the structural invariants.
func verifyModel(t *testing.T, tbl *Table, model map[string][]byte) {
	t.Helper()
	seen := make(map[string]bool, len(model))
	it := tbl.Iter()
	for it.Next() {
		k := string(it.Key())
		if seen[k] {
			t.Fatalf("iterator repeated key %q", k)
		}
		seen[k] = true
		want, ok := model[k]
		if !ok {
			t.Fatalf("iterator returned key %q not in model", k)
		}
		if !bytes.Equal(it.Value(), want) {
			t.Fatalf("iterator value for %q: %d bytes, want %d", k, len(it.Value()), len(want))
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator: %v", err)
	}
	if len(seen) != len(model) {
		t.Fatalf("iterator returned %d keys, model has %d", len(seen), len(model))
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestModelRandomOpsMemory(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opts := &Options{Bsize: 128, Ffactor: 4, CacheSize: 4 * 1024}
			if seed%2 == 0 {
				opts = &Options{Bsize: 512, Ffactor: 32}
			}
			opts.WAL = seed > 4
			tbl := mustOpen(t, "", opts)
			defer tbl.Close()
			verifyModel(t, tbl, runModel(t, tbl, rand.New(rand.NewSource(seed)), 3000))
		})
	}
}

func TestModelRandomOpsDisk(t *testing.T) {
	for _, useWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", useWAL), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.db")
			tbl := mustOpen(t, path, &Options{Bsize: 256, Ffactor: 8, CacheSize: 2 * 1024, WAL: useWAL})
			model := runModel(t, tbl, rand.New(rand.NewSource(99)), 4000)
			verifyModel(t, tbl, model)
			if err := tbl.Close(); err != nil {
				t.Fatal(err)
			}
			tbl = mustOpen(t, path, nil)
			defer tbl.Close()
			verifyModel(t, tbl, model)
		})
	}
}

func TestModelSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model-reopen.db")
	rng := rand.New(rand.NewSource(7))
	model := make(map[string][]byte)

	for round := 0; round < 4; round++ {
		tbl := mustOpen(t, path, &Options{Bsize: 256, Ffactor: 8})
		for op := 0; op < 800; op++ {
			k := []byte(fmt.Sprintf("key%04d", rng.Intn(600)))
			if rng.Intn(3) == 0 {
				err := tbl.Delete(k)
				if _, ok := model[string(k)]; ok && err != nil {
					t.Fatalf("round %d: Delete: %v", round, err)
				}
				delete(model, string(k))
			} else {
				v := []byte(fmt.Sprintf("val-%d-%d", round, op))
				if err := tbl.Put(k, v); err != nil {
					t.Fatalf("round %d: Put: %v", round, err)
				}
				model[string(k)] = v
			}
		}
		if err := tbl.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}

		check := mustOpen(t, path, nil)
		if check.Len() != len(model) {
			t.Fatalf("round %d: Len = %d, model %d", round, check.Len(), len(model))
		}
		for k, v := range model {
			got, err := check.Get([]byte(k))
			if err != nil || !bytes.Equal(got, v) {
				t.Fatalf("round %d: Get(%q) = %q, %v; want %q", round, k, got, err, v)
			}
		}
		if err := check.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: any batch of distinct key/value pairs stores and reads back,
// whatever the bytes look like.
func TestQuickPutGet(t *testing.T) {
	f := func(keys [][]byte, vals [][]byte) bool {
		tbl, err := Open("", &Options{Bsize: 128, Ffactor: 4})
		if err != nil {
			return false
		}
		defer tbl.Close()
		model := make(map[string][]byte)
		for i, k := range keys {
			if len(k) == 0 {
				continue
			}
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			if err := tbl.Put(k, v); err != nil {
				t.Logf("Put(%x): %v", k, err)
				return false
			}
			model[string(k)] = v
		}
		for k, v := range model {
			got, err := tbl.Get([]byte(k))
			if err != nil {
				t.Logf("Get(%x): %v", k, err)
				return false
			}
			if !bytes.Equal(got, v) {
				t.Logf("Get(%x) = %x, want %x", k, got, v)
				return false
			}
		}
		return tbl.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: keys that differ only in their last byte never collide as
// stored entries (bit-randomizing hash requirement made observable).
func TestQuickSimilarKeys(t *testing.T) {
	f := func(prefix []byte, n uint8) bool {
		tbl, err := Open("", nil)
		if err != nil {
			return false
		}
		defer tbl.Close()
		count := int(n%64) + 2
		for i := 0; i < count; i++ {
			k := append(append([]byte(nil), prefix...), byte(i), 'k')
			if err := tbl.Put(k, []byte{byte(i)}); err != nil {
				return false
			}
		}
		for i := 0; i < count; i++ {
			k := append(append([]byte(nil), prefix...), byte(i), 'k')
			got, err := tbl.Get(k)
			if err != nil || len(got) != 1 || got[0] != byte(i) {
				return false
			}
		}
		return tbl.Len() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
