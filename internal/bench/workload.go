package bench

import (
	"bytes"
	"fmt"

	"unixhash/internal/core"
	"unixhash/internal/dataset"
	"unixhash/internal/hashfunc"
	"unixhash/internal/pagefile"
)

// HashParams configures a hash-table run.
type HashParams struct {
	Bsize          int
	Ffactor        int
	CacheSize      int
	Nelem          int // 0: grow from a single bucket
	ControlledOnly bool
	Cost           Cost // zero: DiskCost
}

// hashRun holds an open table, its accounting store and the cost its
// counted I/O is charged at.
type hashRun struct {
	t     *core.Table
	store pagefile.Store
	cost  Cost
}

func newHashRun(p HashParams) (*hashRun, error) {
	return newHashRunWithHash(p, nil)
}

func newHashRunWithHash(p HashParams, fn hashfunc.Func) (*hashRun, error) {
	cost := p.Cost
	if cost == (Cost{}) {
		cost = DiskCost
	}
	store := pagefile.NewMem(p.Bsize)
	nelem := p.Nelem
	if nelem <= 0 {
		nelem = 1
	}
	t, err := core.Open("", &core.Options{
		Bsize: p.Bsize, Ffactor: p.Ffactor, CacheSize: p.CacheSize,
		Nelem: nelem, Store: store, ControlledOnly: p.ControlledOnly,
		Hash: fn,
	})
	if err != nil {
		return nil, err
	}
	return &hashRun{t: t, store: store, cost: cost}, nil
}

func (r *hashRun) stores() []pagefile.Store { return []pagefile.Store{r.store} }

// createAll inserts every pair and flushes the table to its store.
func (r *hashRun) createAll(pairs []dataset.Pair) (Timing, error) {
	return Measure(r.cost, r.stores(), func() error {
		for _, p := range pairs {
			if err := r.t.Put(p.Key, p.Data); err != nil {
				return err
			}
		}
		return r.t.Sync()
	})
}

// enterAll inserts every pair without flushing (memory-resident use).
func (r *hashRun) enterAll(pairs []dataset.Pair) (Timing, error) {
	return Measure(r.cost, r.stores(), func() error {
		for _, p := range pairs {
			if err := r.t.Put(p.Key, p.Data); err != nil {
				return err
			}
		}
		return nil
	})
}

// readAll looks up every pair.
func (r *hashRun) readAll(pairs []dataset.Pair) (Timing, error) {
	return Measure(r.cost, r.stores(), func() error {
		for _, p := range pairs {
			if _, err := r.t.Get(p.Key); err != nil {
				return fmt.Errorf("read %q: %w", p.Key, err)
			}
		}
		return nil
	})
}

// verifyAll looks up every pair and compares the data returned against
// what was stored.
func (r *hashRun) verifyAll(pairs []dataset.Pair) (Timing, error) {
	return Measure(r.cost, r.stores(), func() error {
		for _, p := range pairs {
			got, err := r.t.Get(p.Key)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, p.Data) {
				return fmt.Errorf("verify %q: got %q want %q", p.Key, got, p.Data)
			}
		}
		return nil
	})
}

// seqAll retrieves all pairs in sequential order. The native interface
// returns both key and data in one call (unlike ndbm).
func (r *hashRun) seqAll(want int) (Timing, error) {
	return Measure(r.cost, r.stores(), func() error {
		n := 0
		sink := 0
		it := r.t.Iter()
		for it.Next() {
			sink += len(it.Key()) + len(it.Value())
			n++
		}
		if err := it.Err(); err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("sequential scan saw %d pairs, want %d", n, want)
		}
		return nil
	})
}

func (r *hashRun) close() error { return r.t.Close() }
