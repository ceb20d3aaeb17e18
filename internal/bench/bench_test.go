package bench

import (
	"strings"
	"testing"
	"time"
)

// The harness tests run scaled-down versions of each figure and check
// the paper's qualitative claims — who wins, and in which direction the
// curves move — not absolute numbers.

const testN = 4000 // scaled-down dictionary for test speed

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(testN, 1<<20, []int{128, 256, 1024, 4096}, []int{1, 8, 64})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: for all bucket sizes, the greatest performance gains come
	// from increasing the fill factor away from 1.
	for _, bs := range res.Bsizes {
		atFF1 := res.point(bs, 1)
		atFF8 := res.point(bs, 8)
		if atFF1 == nil || atFF8 == nil {
			t.Fatalf("missing points for bsize %d", bs)
		}
		if atFF8.Total.Elapsed > atFF1.Total.Elapsed {
			t.Errorf("bsize %d: ffactor 8 slower than ffactor 1 (%v > %v)",
				bs, atFF8.Total.Elapsed, atFF1.Total.Elapsed)
		}
	}
	// Paper: large pages at fill factor 1 are the catastrophic corner
	// (most pages, most buffer-manager churn).
	worst := res.point(4096, 1)
	good := res.point(256, 8)
	if worst.Total.Sys < good.Total.Sys {
		t.Errorf("4096/1 system time %v < 256/8 %v; expected the corner to be worst",
			worst.Total.Sys, good.Total.Sys)
	}
	if s := res.String(); !strings.Contains(s, "5a: System time") {
		t.Error("String() missing panel headers")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(testN, []int{4, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: once the fill factor is sufficiently high for the page size
	// (8), growing the table dynamically does little to degrade
	// performance — and never *improves* it dramatically.
	for _, p := range res.Points {
		if p.Ffactor < 8 {
			continue
		}
		if p.Known.Elapsed == 0 {
			continue
		}
		penalty := float64(p.Grown.Elapsed-p.Known.Elapsed) / float64(p.Known.Elapsed)
		if penalty > 1.0 {
			t.Errorf("ffactor %d: dynamic growth penalty %.0f%%, paper expects it small",
				p.Ffactor, 100*penalty)
		}
	}
	if s := res.String(); !strings.Contains(s, "known size") {
		t.Error("String() malformed")
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(testN, []int{0, 64 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Points[0], res.Points[len(res.Points)-1]
	// Paper: system time is inversely proportional to the pool size...
	if small.T.Sys <= large.T.Sys {
		t.Errorf("sys time did not fall with pool size: %v (small) vs %v (1MB)",
			small.T.Sys, large.T.Sys)
	}
	// ...and with 1 MB of buffer space the package performed no I/O for
	// the data set. The durable dirty mark (one header write before the
	// first mutation) is a constant durability cost on top of the paper's
	// model, so allow exactly those header pages and nothing more.
	hdrWrites := int64((276 + 255) / 256) // headerSize / bsize, rounded up
	if large.IOOps > hdrWrites {
		t.Errorf("1MB pool performed %d page I/Os, paper expects none beyond the %d-page dirty mark",
			large.IOOps, hdrWrites)
	}
	// User time is virtually insensitive to the pool size (allow wide
	// slack: wall-clock noise).
	if small.T.User > 20*large.T.User+50*time.Millisecond {
		t.Errorf("user time blew up with a small pool: %v vs %v", small.T.User, large.T.User)
	}
}

func TestFig8DictShape(t *testing.T) {
	res, err := Fig8Dict(testN)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Fig8Row{}
	for _, r := range res.DiskRows {
		rows[r.Test] = r
	}
	// Paper: the read and verify tests benefit from the caching of
	// buckets in the new package to improve performance by over 80%.
	for _, test := range []string{"READ", "VERIFY"} {
		r := rows[test]
		if imp := r.Improvement(); imp < 50 {
			t.Errorf("%s: improvement %.0f%%, paper reports >80%%", test, imp)
		}
	}
	// Paper: when both packages must return the data, the new package
	// excels (75% elapsed improvement).
	if imp := rows["SEQUENTIAL (with data retrieval)"].Improvement(); imp < 30 {
		t.Errorf("SEQUENTIAL+data: improvement %.0f%%, paper reports 75%%", imp)
	}
	// Paper: create wins too (9% elapsed on the dictionary).
	if imp := rows["CREATE"].Improvement(); imp < 0 {
		t.Errorf("CREATE: hash slower than ndbm by %.0f%%", -imp)
	}
	// Memory-resident: the structural claims hold — the hash package
	// bounds its memory and pays a system-time (swap) penalty that pure
	// in-memory hsearch does not, and it stays within a small factor of
	// hsearch overall. (The paper's >50% elapsed win came from SysV
	// hsearch's per-probe and allocation costs on 1990 hardware, which a
	// clean Go port does not reproduce; see EXPERIMENTS.md.)
	mem := res.MemRows[0]
	if mem.Hash.Sys == 0 {
		t.Error("CREATE/READ: hash paid no swap penalty; the 64KB pool bound is not engaging")
	}
	if mem.Old.Sys != 0 {
		t.Error("CREATE/READ: hsearch charged system time but performs no I/O")
	}
	// The factor is generous because race instrumentation inflates the
	// paged code path far more than hsearch's flat probing.
	if mem.Hash.Elapsed > 15*mem.Old.Elapsed+10*time.Millisecond {
		t.Errorf("CREATE/READ vs hsearch: hash %v vs %v — worse than the documented deviation",
			mem.Hash.Elapsed, mem.Old.Elapsed)
	}
	if s := res.String(); !strings.Contains(s, "ndbm") || !strings.Contains(s, "hsearch") {
		t.Error("String() malformed")
	}
}

func TestFig8PasswdShape(t *testing.T) {
	res, err := Fig8Passwd(0) // the full ~300-account file is tiny
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "for the small data base, we see that differences in both
	// user and system time contribute to the superior performance of the
	// new package" on CREATE; the rest "ran in under a second" and is
	// uninteresting. Require only: no test catastrophically lost.
	for _, r := range res.DiskRows {
		if r.Test == "SEQUENTIAL" {
			continue // keys-only scan can favour ndbm, as in the paper
		}
		if r.Hash.Elapsed > 3*r.Old.Elapsed+10*time.Millisecond {
			t.Errorf("%s: hash %v vs ndbm %v", r.Test, r.Hash.Elapsed, r.Old.Elapsed)
		}
	}
}

func TestAblateSplitPolicy(t *testing.T) {
	res, err := AblateSplitPolicy(testN)
	if err != nil {
		t.Fatal(err)
	}
	// With the fill factor above the page capacity, overflow pressure is
	// constant: the hybrid policy must split more and leave far fewer
	// overflow pages (shorter chains) than controlled-only splitting.
	if res.Hybrid.OvflPages >= res.CtlOnl.OvflPages {
		t.Errorf("hybrid left %d overflow pages, controlled-only %d — uncontrolled splits had no effect",
			res.Hybrid.OvflPages, res.CtlOnl.OvflPages)
	}
	if res.Hybrid.Expansions <= res.CtlOnl.Expansions {
		t.Errorf("hybrid split %d times, controlled-only %d — hybrid must split more under overflow pressure",
			res.Hybrid.Expansions, res.CtlOnl.Expansions)
	}
	if s := res.String(); !strings.Contains(s, "hybrid") {
		t.Error("String() malformed")
	}
}

func TestAblateHashFuncs(t *testing.T) {
	rs, err := AblateHashFuncs(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 6 {
		t.Fatalf("profiled %d functions", len(rs))
	}
	for _, r := range rs {
		if r.NsPerCall <= 0 || r.NsPerCall > 100000 {
			t.Errorf("%s: %f ns/call implausible", r.Name, r.NsPerCall)
		}
		// 2000 keys into 65536 cells: a healthy function collides rarely.
		if r.Name != "division" && r.Collisions > 400 {
			t.Errorf("%s: %d collisions of 2000 keys at 16 bits", r.Name, r.Collisions)
		}
	}
	if s := FormatHashFuncs(rs, 2000); !strings.Contains(s, "ns/call") {
		t.Error("FormatHashFuncs malformed")
	}
}

func TestTimingHelpers(t *testing.T) {
	a := Timing{User: time.Second, Sys: 2 * time.Second, Elapsed: 3 * time.Second, Reads: 5, Writes: 7}
	b := Timing{User: time.Second, Sys: time.Second, Elapsed: 2 * time.Second, Reads: 1, Writes: 1}
	sum := a.Add(b)
	if sum.User != 2*time.Second || sum.Sys != 3*time.Second || sum.Reads != 6 || sum.Writes != 8 {
		t.Fatalf("Add = %+v", sum)
	}
	if got := Seconds(1500 * time.Millisecond); got != "1.5" {
		t.Fatalf("Seconds = %q", got)
	}
}

func TestFig7String(t *testing.T) {
	res, err := Fig7(500, []int{1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); !strings.Contains(s, "Figure 7") || !strings.Contains(s, "page I/Os") {
		t.Fatalf("String = %q", s)
	}
}

func TestFig5DefaultsAndMissingPoint(t *testing.T) {
	res, err := Fig5(300, 0, []int{128}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BufferBytes != 1<<20 {
		t.Fatalf("default buffer = %d", res.BufferBytes)
	}
	if p := res.point(9999, 1); p != nil {
		t.Fatal("found a point that was never measured")
	}
	// String renders a dash for missing cells.
	res.Bsizes = append(res.Bsizes, 9999)
	if s := res.String(); !strings.Contains(s, "-") {
		t.Fatalf("missing cell not rendered: %q", s)
	}
	empty := &Fig5Result{}
	if best, ties := empty.Best(); best.Bsize != 0 || best.Ffactor != 0 || ties != nil {
		t.Fatalf("Best on empty = %d/%d, ties %v", best.Bsize, best.Ffactor, ties)
	}
}

// TestFig5BestTies: cells that tie on simulated sys are ranked by page
// I/O count, then by the smaller bsize, never by measured user time,
// and String names every cell tied with the best.
func TestFig5BestTies(t *testing.T) {
	cell := func(bs, ff int, user, sys time.Duration, ios int64) Fig5Point {
		return Fig5Point{Bsize: bs, Ffactor: ff, Total: Timing{User: user, Sys: sys, Elapsed: user + sys, Writes: ios}}
	}
	r := &Fig5Result{Bsizes: []int{256, 4096, 8192}, Ffactors: []int{8, 128}, Points: []Fig5Point{
		cell(256, 8, 1*time.Millisecond, 900*time.Millisecond, 60),
		cell(8192, 128, 1*time.Millisecond, 683*time.Millisecond, 34),  // faster user time
		cell(4096, 128, 40*time.Millisecond, 683*time.Millisecond, 34), // the smaller bsize
	}}
	best, ties := r.Best()
	if best.Bsize != 4096 || best.Ffactor != 128 {
		t.Fatalf("Best = %d/%d, want 4096/128 (smaller bsize of two tied on sys and page I/O)", best.Bsize, best.Ffactor)
	}
	if len(ties) != 1 || ties[0].Bsize != 8192 {
		t.Fatalf("ties = %v, want the 8192/128 cell", ties)
	}
	if s := r.String(); !strings.Contains(s, "bsize=4096 ffactor=128") || !strings.Contains(s, "ties on sys: bsize=8192 ffactor=128") {
		t.Fatalf("String does not name the best cell and its tie:\n%s", s)
	}
	// Fewer page I/Os win a tie on sys before the bsize is looked at.
	r.Points[1].Total.Writes = 33
	if best, _ := r.Best(); best.Bsize != 8192 {
		t.Fatalf("Best = %d/%d, want 8192/128 (fewer page I/Os)", best.Bsize, best.Ffactor)
	}
}

func TestImprovementMetric(t *testing.T) {
	if got := Improvement(100, 50); got != 50 {
		t.Fatalf("Improvement(100,50) = %f", got)
	}
	if got := Improvement(0, 50); got != 0 {
		t.Fatalf("Improvement(0,50) = %f", got)
	}
	if got := Improvement(50, 100); got != -100 {
		t.Fatalf("Improvement(50,100) = %f", got)
	}
}
