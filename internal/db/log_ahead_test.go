package db

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"unixhash/internal/core"
)

// TestWALAheadOfTablesRefused: a table file restored from a copy taken
// before a checkpoint, beside the newer log that checkpoint reset, is a
// table rolled back underneath its log. No automatic answer is safe, so
// both shapes — a single file with its sidecar log and one shard of a
// directory with its shared log — refuse to open and to recover with
// ErrUnrecoverable, and leave every file byte-identical.
func TestWALAheadOfTablesRefused(t *testing.T) {
	for _, tc := range []struct {
		name    string
		target  string // the file restored from the old copy, relative to dir
		open    func(dir string) (DB, error)
		recover func(dir string) (DB, error)
	}{
		{
			name:   "file",
			target: "f.db",
			open: func(dir string) (DB, error) {
				return Open(filepath.Join(dir, "f.db"), Hash, &Config{Hash: &core.Options{WAL: true}})
			},
			recover: func(dir string) (DB, error) {
				tbl, _, err := core.Recover(filepath.Join(dir, "f.db"), &core.Options{WAL: true})
				if err != nil {
					return nil, err
				}
				return &hashDB{tbl}, nil
			},
		},
		{
			name:   "dir",
			target: filepath.Base(shardPath("", 1)),
			open: func(dir string) (DB, error) {
				return OpenSharded(dir, 2, &Config{Hash: &core.Options{WAL: true}})
			},
			recover: func(dir string) (DB, error) {
				s, _, err := RecoverSharded(dir, 2, nil)
				return s, err
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			commitAndClose := func(v string) {
				t.Helper()
				d, err := tc.open(dir)
				if err != nil {
					t.Fatal(err)
				}
				x, err := d.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for sh := 0; sh < 2; sh++ {
					x.Put(keyOnShard(sh, 0), []byte(v))
				}
				if err := x.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := d.Close(); err != nil { // a checkpoint: the log is reset above the commit
					t.Fatal(err)
				}
			}
			commitAndClose("old")
			target := filepath.Join(dir, tc.target)
			old, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			commitAndClose("new")
			if err := os.WriteFile(target, old, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, dir)

			for name, open := range map[string]func(string) (DB, error){"open": tc.open, "recover": tc.recover} {
				d, err := open(dir)
				if err == nil {
					d.Close()
				}
				if !errors.Is(err, core.ErrUnrecoverable) {
					t.Fatalf("%s beside a newer log = %v, want ErrUnrecoverable", name, err)
				}
				if after := dirBytes(t, dir); !maps.Equal(after, before) {
					t.Fatalf("refused %s changed the files", name)
				}
			}
		})
	}
}
