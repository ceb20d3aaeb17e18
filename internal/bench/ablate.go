package bench

import (
	"fmt"
	"strings"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/dataset"
	"unixhash/internal/hashfunc"
)

// Ablations of the design choices DESIGN.md calls out:
//
//   - the hybrid split policy (uncontrolled + controlled) versus
//     dynahash's controlled-only splitting;
//   - the choice of hash function (the paper: the default "offered the
//     best performance in terms of cycles executed per call (it did not
//     produce the fewest collisions although it was within a small
//     percentage of the function that produced the fewest collisions)").

// SplitPolicyResult compares hybrid and controlled-only splitting.
type SplitPolicyResult struct {
	N      int
	Hybrid SplitPolicyArm
	CtlOnl SplitPolicyArm
}

// SplitPolicyArm is one policy's outcome.
type SplitPolicyArm struct {
	Create     Timing
	Read       Timing
	Expansions int64
	OvflAllocs int64
	OvflPages  int
}

// AblateSplitPolicy measures both policies over the dictionary. The
// fill factor (32) deliberately exceeds what a 256-byte page holds
// (about 11 dictionary pairs), so buckets overflow routinely: that is
// the regime where the uncontrolled half of the hybrid policy acts.
func AblateSplitPolicy(n int) (*SplitPolicyResult, error) {
	pairs := dataset.Dictionary(n)
	res := &SplitPolicyResult{N: len(pairs)}
	for _, controlled := range []bool{false, true} {
		r, err := newHashRun(HashParams{
			Bsize: 256, Ffactor: 32, CacheSize: 1 << 20,
			Nelem: 1, ControlledOnly: controlled,
		})
		if err != nil {
			return nil, err
		}
		ct, err := r.createAll(pairs)
		if err != nil {
			return nil, err
		}
		rt, err := r.readAll(pairs)
		if err != nil {
			return nil, err
		}
		h, err := r.t.Heatmap()
		if err != nil {
			return nil, err
		}
		snap, err := r.t.MetricsSnapshot()
		if err != nil {
			return nil, err
		}
		arm := SplitPolicyArm{
			Create: ct, Read: rt,
			Expansions: snap.Counter(core.MetricSplitsControlled) + snap.Counter(core.MetricSplitsUncontrolled),
			OvflAllocs: snap.Counter(core.MetricOvflAllocs),
			OvflPages:  h.OverflowPages + h.BigPairPages,
		}
		if err := r.close(); err != nil {
			return nil, err
		}
		if controlled {
			res.CtlOnl = arm
		} else {
			res.Hybrid = arm
		}
	}
	return res, nil
}

// String renders the comparison.
func (r *SplitPolicyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — split policy, dictionary (%d keys), bsize 256, ffactor 32, grown from one bucket\n\n", r.N)
	fmt.Fprintf(&b, "%-18s %12s %12s %12s %12s %12s\n",
		"policy", "create (s)", "read (s)", "splits", "ovfl allocs", "ovfl pages")
	row := func(name string, a SplitPolicyArm) {
		fmt.Fprintf(&b, "%-18s %12.2f %12.2f %12d %12d %12d\n",
			name, a.Create.Elapsed.Seconds(), a.Read.Elapsed.Seconds(),
			a.Expansions, a.OvflAllocs, a.OvflPages)
	}
	row("hybrid (paper)", r.Hybrid)
	row("controlled-only", r.CtlOnl)
	b.WriteString("\n(the hybrid policy trades a few extra splits for shorter overflow chains on reads)\n")
	return b.String()
}

// HashFuncResult is one hash function's profile on the dictionary.
type HashFuncResult struct {
	Name       string
	NsPerCall  float64
	Collisions int // pairs sharing a 16-bit masked value
	CreateRead time.Duration
}

// AblateHashFuncs profiles every registered function: cycles per call,
// masked collisions, and end-to-end create+read user time with the
// function installed as the table's hash.
func AblateHashFuncs(n int) ([]HashFuncResult, error) {
	pairs := dataset.Dictionary(n)
	names := []string{"default", "sdbm", "dbm", "knuth", "division", "fnv1a"}
	var out []HashFuncResult
	for _, name := range names {
		fn := hashfunc.ByName[name]

		// Cycles per call.
		const reps = 20
		start := time.Now()
		var sink uint32
		for rep := 0; rep < reps; rep++ {
			for _, p := range pairs {
				sink += fn(p.Key)
			}
		}
		perCall := float64(time.Since(start).Nanoseconds()) / float64(reps*len(pairs))
		_ = sink

		// Collisions under a 16-bit mask (bucket-collision proxy).
		seen := make(map[uint32]int, len(pairs))
		coll := 0
		for _, p := range pairs {
			h := fn(p.Key) & 0xFFFF
			if seen[h] > 0 {
				coll++
			}
			seen[h]++
		}

		// End-to-end with the function installed.
		r, err := newHashRunWithHash(HashParams{Bsize: 256, Ffactor: 8, CacheSize: 1 << 20, Nelem: len(pairs)}, fn)
		if err != nil {
			return nil, err
		}
		ct, err := r.enterAll(pairs)
		if err != nil {
			return nil, fmt.Errorf("hashfunc %s: %w", name, err)
		}
		rt, err := r.readAll(pairs)
		if err != nil {
			return nil, fmt.Errorf("hashfunc %s: %w", name, err)
		}
		if err := r.close(); err != nil {
			return nil, err
		}
		out = append(out, HashFuncResult{
			Name: name, NsPerCall: perCall, Collisions: coll,
			CreateRead: ct.User + rt.User,
		})
	}
	return out, nil
}

// FormatHashFuncs renders the profile table.
func FormatHashFuncs(rs []HashFuncResult, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — hash functions over the dictionary (%d keys)\n\n", n)
	fmt.Fprintf(&b, "%-10s %12s %18s %18s\n", "function", "ns/call", "16-bit collisions", "create+read user")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-10s %12.1f %18d %18s\n", r.Name, r.NsPerCall, r.Collisions,
			r.CreateRead.Round(time.Millisecond))
	}
	b.WriteString("\n(the paper chose its default for speed per call, not minimal collisions)\n")
	return b.String()
}
