package db

import (
	"errors"
	"fmt"
	"io"

	"unixhash/internal/core"
)

// Table-level operations through the DB interface. These helpers are the
// sanctioned replacement for reaching through the adapters to the
// concrete *core.Table: callers keep a plain DB, and the type dispatch
// lives here, inside the package.

// ErrUnsupported reports a helper applied to a database shape that
// cannot answer it (a single-table helper on a sharded database, any
// helper on a caller's own DB implementation).
var ErrUnsupported = errors.New("db: operation not supported by this database")

// Verify checks an open database's integrity without modifying it: the
// durability verifier (is the last-synced state intact, are the header
// invariants consistent?), on every shard of a sharded database.
func Verify(d DB) error {
	switch x := d.(type) {
	case *hashDB:
		return x.Verify()
	case *Sharded:
		for i, sh := range x.shards {
			if err := sh.Verify(); err != nil {
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
	t, err := single(d, "compact")
	if err != nil {
		return err
	}
	bsize, ffactor := t.Params()
	dst, err := core.Open(path, &core.Options{Bsize: bsize, Ffactor: ffactor, Nelem: t.Len()})
	if err != nil {
		return err
	}
	if err := t.Compact(dst); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// Heatmap is a single-table database's per-bucket fill and chain depth
// (core.Table.Heatmap): what /debug/heatmap serves and dbcli heatmap
// prints, walked under the shared lock.
func Heatmap(d DB) (*core.Heatmap, error) {
	t, err := single(d, "heatmap")
	if err != nil {
		return nil, err
	}
	return t.Heatmap()
}

// Dump writes a single-table database's page layout to w: header
// geometry, spares, bitmap occupancy and every bucket chain, with
// verbose every key (core.Table.Dump).
func Dump(d DB, w io.Writer, verbose bool) error {
	t, err := single(d, "dump")
	if err != nil {
		return err
	}
	return t.Dump(w, verbose)
}

// Unsettled reports why a single-table database's pages may not show its
// last commit: a header left dirty by a crash, or committed log
// transactions not yet applied (core.Table.Unsettled). Both call for
// recovery, and neither read stops traffic.
func Unsettled(d DB) (dirty bool, walPending int, err error) {
	t, err := single(d, "unsettled")
	if err != nil {
		return false, 0, err
	}
	dirty, walPending = t.Unsettled()
	return dirty, walPending, nil
}

// single is the table behind a single-table database.
func single(d DB, op string) (*core.Table, error) {
	x, ok := d.(*hashDB)
	if !ok {
		return nil, fmt.Errorf("%w: %s (%T)", ErrUnsupported, op, d)
	}
	return x.Table, nil
}
