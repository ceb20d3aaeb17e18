package bench

import (
	"errors"
	"testing"
	"time"

	"unixhash/internal/pagefile"
)

// TestCostCharge pins where simulated disk time is made: the stores only
// count, and Measure charges every counted read, write and sync at its
// Cost. A 3-page vectored write counts, and is charged, as 3 writes, and
// a read that a FaultStore blocked is counted and charged like any other.
func TestCostCharge(t *testing.T) {
	c := Cost{Read: time.Millisecond, Write: 10 * time.Millisecond, Sync: 100 * time.Millisecond}
	ms := pagefile.NewMem(64)
	page := make([]byte, 64)
	tm, err := Measure(c, []pagefile.Store{ms}, func() error {
		if err := ms.WritePages(0, make([]byte, 3*64)); err != nil {
			return err
		}
		if err := ms.WritePage(3, page); err != nil {
			return err
		}
		for pn := uint32(0); pn < 2; pn++ {
			if err := ms.ReadPage(pn, page); err != nil {
				return err
			}
		}
		return ms.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*c.Read + 4*c.Write + c.Sync; tm.Reads != 2 || tm.Writes != 4 || tm.Sys != want {
		t.Fatalf("charged %+v, want 2 reads, 4 writes and sys %v", tm, want)
	}
	if tm.Elapsed != tm.User+tm.Sys {
		t.Fatalf("elapsed %v is not user %v + sys %v", tm.Elapsed, tm.User, tm.Sys)
	}

	blocked := errors.New("blocked")
	fs := pagefile.NewFault(ms)
	fs.Inject(pagefile.Fault{Op: pagefile.OpRead, After: 1, Err: blocked, Page: pagefile.AnyPage})
	tm, err = Measure(c, []pagefile.Store{fs}, func() error { return fs.ReadPage(0, page) })
	if !errors.Is(err, blocked) {
		t.Fatalf("faulted read: %v, want the injected error", err)
	}
	if tm.Reads != 1 || tm.Writes != 0 || tm.Sys != c.Read {
		t.Fatalf("blocked read charged %+v, want 1 read and sys %v", tm, c.Read)
	}
}
