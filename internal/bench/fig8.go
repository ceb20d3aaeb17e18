package bench

import (
	"bytes"
	"fmt"
	"strings"

	"unixhash/internal/dataset"
	"unixhash/internal/hsearch"
	"unixhash/internal/ndbm"
	"unixhash/internal/pagefile"
)

// Figures 8a and 8b: the relative performance of the new package.
//
// The disk-based suite (bucket size 1024, fill factor 32) compares
// against ndbm on five tests: create (enter all pairs and flush the file),
// read (a lookup per key), verify (lookup plus comparison against the
// stored data), sequential (ndbm returns only keys), and sequential with
// data retrieval (ndbm needs a second call per key; the new package
// returns both in one pass, so its single run serves both rows).
//
// The memory-resident suite (bucket size 256, fill factor 8) compares
// against hsearch on a combined create/read test: the table is created
// by inserting all pairs, each pair is retrieved, and the table is
// destroyed. As in the paper, hsearch is created with nelem equal to the
// data set size — so it runs at ~100% load — while the new package
// bounds its main memory use and pages to temporary storage.
//
// Figure 8a uses the dictionary data set, Figure 8b the password file.

// Fig8Row is one test's timings for both parties.
type Fig8Row struct {
	Test string
	Hash Timing
	Old  Timing // ndbm or hsearch
}

// Improvement returns the paper's %change for the row's elapsed time.
func (r Fig8Row) Improvement() float64 { return Improvement(r.Old.Elapsed, r.Hash.Elapsed) }

// Fig8Result is one dataset's full comparison.
type Fig8Result struct {
	Dataset  string
	N        int
	DiskRows []Fig8Row // vs ndbm
	MemRows  []Fig8Row // vs hsearch
}

// Fig8Dict runs Figure 8a. n <= 0 selects the full dictionary.
func Fig8Dict(n int) (*Fig8Result, error) {
	pairs := dataset.Dictionary(n)
	return fig8(pairs, "dictionary")
}

// Fig8Passwd runs Figure 8b. n <= 0 selects the paper's ~300 accounts.
func Fig8Passwd(n int) (*Fig8Result, error) {
	pairs := dataset.PasswdPairs(dataset.Passwd(n))
	return fig8(pairs, "password")
}

func fig8(pairs []dataset.Pair, name string) (*Fig8Result, error) {
	res := &Fig8Result{Dataset: name, N: len(pairs)}
	disk, err := fig8Disk(pairs)
	if err != nil {
		return nil, fmt.Errorf("fig8 %s disk: %w", name, err)
	}
	res.DiskRows = disk
	mem, err := fig8Mem(pairs)
	if err != nil {
		return nil, fmt.Errorf("fig8 %s memory: %w", name, err)
	}
	res.MemRows = mem
	return res, nil
}

func fig8Disk(pairs []dataset.Pair) ([]Fig8Row, error) {
	// --- the new package ---
	hr, err := newHashRun(HashParams{Bsize: 1024, Ffactor: 32, CacheSize: 1 << 20, Nelem: len(pairs)})
	if err != nil {
		return nil, err
	}
	defer hr.close()
	hCreate, err := hr.createAll(pairs)
	if err != nil {
		return nil, err
	}
	hRead, err := hr.readAll(pairs)
	if err != nil {
		return nil, err
	}
	hVerify, err := hr.verifyAll(pairs)
	if err != nil {
		return nil, err
	}
	hSeq, err := hr.seqAll(len(pairs))
	if err != nil {
		return nil, err
	}

	// --- ndbm ---
	store := pagefile.NewMem(ndbm.DefaultPageSize)
	db, err := ndbm.Open("", &ndbm.Options{Store: store})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	stores := []pagefile.Store{store}

	nCreate, err := Measure(DiskCost, stores, func() error {
		for _, p := range pairs {
			if err := db.Store(p.Key, p.Data, true); err != nil {
				return err
			}
		}
		return db.Sync()
	})
	if err != nil {
		return nil, err
	}
	nRead, err := Measure(DiskCost, stores, func() error {
		for _, p := range pairs {
			if _, err := db.Fetch(p.Key); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nVerify, err := Measure(DiskCost, stores, func() error {
		for _, p := range pairs {
			got, err := db.Fetch(p.Key)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, p.Data) {
				return fmt.Errorf("ndbm verify %q", p.Key)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Sequential, keys only: the ndbm interface does not return the data.
	nSeq, err := Measure(DiskCost, stores, func() error {
		n, sink := 0, 0
		c := db.First()
		for {
			k, err := c.Next()
			if err != nil {
				return err
			}
			if k == nil {
				break
			}
			sink += len(k)
			n++
		}
		if n != len(pairs) {
			return fmt.Errorf("ndbm scan saw %d keys, want %d", n, len(pairs))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Sequential with data retrieval: a second call per key.
	nSeqData, err := Measure(DiskCost, stores, func() error {
		c := db.First()
		for {
			k, err := c.Next()
			if err != nil {
				return err
			}
			if k == nil {
				return nil
			}
			if _, err := db.Fetch(k); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}

	return []Fig8Row{
		{Test: "CREATE", Hash: hCreate, Old: nCreate},
		{Test: "READ", Hash: hRead, Old: nRead},
		{Test: "VERIFY", Hash: hVerify, Old: nVerify},
		{Test: "SEQUENTIAL", Hash: hSeq, Old: nSeq},
		{Test: "SEQUENTIAL (with data retrieval)", Hash: hSeq, Old: nSeqData},
	}, nil
}

func fig8Mem(pairs []dataset.Pair) ([]Fig8Row, error) {
	// --- the new package, memory-resident with bounded cache; evicted
	// pages cost syscall-scale "swap" time, not disk time ---
	hr, err := newHashRun(HashParams{Bsize: 256, Ffactor: 8, CacheSize: 64 << 10, Nelem: len(pairs), Cost: MemCost})
	if err != nil {
		return nil, err
	}
	defer hr.close()
	hEnter, err := hr.enterAll(pairs)
	if err != nil {
		return nil, err
	}
	hRead, err := hr.readAll(pairs)
	if err != nil {
		return nil, err
	}

	// --- hsearch, sized exactly to the data set as its interface asks ---
	tbl := hsearch.New(len(pairs), nil)
	sEnter, err := Measure(Cost{}, nil, func() error {
		for _, p := range pairs {
			if err := tbl.Enter(string(p.Key), p.Data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sRead, err := Measure(Cost{}, nil, func() error {
		for _, p := range pairs {
			if _, ok := tbl.Find(string(p.Key)); !ok {
				return fmt.Errorf("hsearch lost %q", p.Key)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	return []Fig8Row{
		{Test: "CREATE/READ", Hash: hEnter.Add(hRead), Old: sEnter.Add(sRead)},
	}, nil
}

// String renders the paper's Figure 8 tables.
func (r *Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — %s database (%d pairs)\n", r.Dataset, r.N)
	b.WriteString("\nDisk-based tests: hash (bsize 1024, ffactor 32) vs ndbm\n")
	writeFig8Rows(&b, r.DiskRows, "ndbm")
	b.WriteString("\nMemory-resident test: hash (bsize 256, ffactor 8) vs hsearch\n")
	writeFig8Rows(&b, r.MemRows, "hsearch")
	return b.String()
}

func writeFig8Rows(b *strings.Builder, rows []Fig8Row, oldName string) {
	fmt.Fprintf(b, "%-34s %-9s %9s %9s %9s\n", "", "", "hash", oldName, "%change")
	for _, row := range rows {
		pct := func(o, n float64) string {
			if o == 0 && n == 0 {
				return "0"
			}
			if o == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f", 100*(o-n)/o)
		}
		fmt.Fprintf(b, "%-34s\n", row.Test)
		fmt.Fprintf(b, "%-34s %-9s %9.2f %9.2f %9s\n", "", "user",
			row.Hash.User.Seconds(), row.Old.User.Seconds(),
			pct(row.Old.User.Seconds(), row.Hash.User.Seconds()))
		fmt.Fprintf(b, "%-34s %-9s %9.2f %9.2f %9s\n", "", "sys",
			row.Hash.Sys.Seconds(), row.Old.Sys.Seconds(),
			pct(row.Old.Sys.Seconds(), row.Hash.Sys.Seconds()))
		fmt.Fprintf(b, "%-34s %-9s %9.2f %9.2f %9s\n", "", "elapsed",
			row.Hash.Elapsed.Seconds(), row.Old.Elapsed.Seconds(),
			pct(row.Old.Elapsed.Seconds(), row.Hash.Elapsed.Seconds()))
	}
}
