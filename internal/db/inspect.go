package db

import (
	"errors"
	"fmt"

	"unixhash/internal/core"
)

// Table-level operations through the DB interface. These helpers are the
// sanctioned replacement for reaching through the adapters to the
// concrete *core.Table: callers keep a plain DB, and the type dispatch
// lives here, inside the package.

// ErrUnsupported reports a helper applied to a database shape that
// cannot answer it (Compact on a sharded database, either helper on a
// caller's own DB implementation).
var ErrUnsupported = errors.New("db: operation not supported by this database")

// Verify checks an open database's integrity without modifying it: the
// durability verifier (is the last-synced state intact, are the header
// invariants consistent?), on every shard of a sharded database.
func Verify(d DB) error {
	switch x := d.(type) {
	case *hashDB:
		return x.table().Verify()
	case *Sharded:
		for i, sh := range x.shards {
			if err := sh.table().Verify(); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("%w: verify (%T)", ErrUnsupported, d)
}

// Compact rebuilds a single-table database into a new file at path,
// created with the source's bucket size and fill factor and presized
// for its current key count (core.Table.Compact). A sharded database
// reports ErrUnsupported.
func Compact(d DB, path string) error {
	x, ok := d.(*hashDB)
	if !ok {
		return fmt.Errorf("%w: compact (%T)", ErrUnsupported, d)
	}
	g := x.t.Geometry()
	dst, err := core.Open(path, &core.Options{Bsize: g.Bsize, Ffactor: g.Ffactor, Nelem: x.t.Len()})
	if err != nil {
		return err
	}
	if err := x.t.Compact(dst); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
