// Package bench is the experiment harness that regenerates every figure
// in the paper's evaluation section (Figures 5a-c, 6, 7, 8a, 8b) plus
// ablations of the design choices.
//
// Timing model. The paper reports getrusage user/system time and wall
// clock on an HP 9000/370 with an HP7959S disk. This harness substitutes:
//
//	user    — measured wall time of the workload (no real I/O happens:
//	          stores are memory-backed, so this is CPU time in the
//	          structures, the analogue of user time);
//	sys     — the simulated cost of the I/O the workload performed:
//	          the page reads, writes and syncs its stores counted, each
//	          priced by a Cost (the analogue of system+disk time, which
//	          in 1991 was dominated by the disk);
//	elapsed — user + sys (single-user machine, synchronous I/O).
//
// Who wins and by what factor is therefore driven by exactly what drove
// the paper's numbers — how many pages move and how much CPU the
// algorithms burn — while absolute values reflect the configured Cost
// rather than 1990 hardware. The stores only count; this package is the
// one place a count becomes time.
package bench

import (
	"fmt"
	"time"

	"unixhash/internal/pagefile"
)

// Cost prices counted I/O as simulated system time: each page read,
// page write and sync a store counted costs Read, Write or Sync. No
// operation waits for it.
type Cost struct {
	Read, Write, Sync time.Duration
}

// Charge returns the simulated time of the I/O counted in d, a
// StatsSnapshot delta. A vectored write counts, and so is charged, per
// page; an operation a FaultStore blocked is counted and charged too.
func (c Cost) Charge(d pagefile.StatsSnapshot) time.Duration {
	return time.Duration(d.Reads)*c.Read + time.Duration(d.Writes)*c.Write + time.Duration(d.Syncs)*c.Sync
}

// DiskCost is the per-page-I/O cost charged as simulated system time in
// the disk-based suites: a late-1980s SCSI disk seek+rotate+transfer.
var DiskCost = Cost{Read: 20 * time.Millisecond, Write: 20 * time.Millisecond, Sync: time.Millisecond}

// MemCost is the cost model for the memory-resident suite, where pages
// swapped out of the bounded pool go "to temporary storage in the file
// system" (the paper) — that is, to the OS buffer cache: a syscall, not
// a disk seek. The value is calibrated so the ratio of swap cost to the
// package's per-operation CPU cost matches the paper's machine (sys
// 1.1s vs user 6.6s over ~49k ops with ~1.3 page I/Os each); a modern
// syscall is a few hundred nanoseconds against per-op user time of a few
// hundred nanoseconds, the same order.
var MemCost = Cost{Read: 100 * time.Nanosecond, Write: 100 * time.Nanosecond}

// Timing is one measured phase.
type Timing struct {
	User    time.Duration
	Sys     time.Duration
	Elapsed time.Duration
	Reads   int64
	Writes  int64
}

// Add accumulates another timing (for multi-phase totals).
func (t Timing) Add(o Timing) Timing {
	return Timing{
		User: t.User + o.User, Sys: t.Sys + o.Sys, Elapsed: t.Elapsed + o.Elapsed,
		Reads: t.Reads + o.Reads, Writes: t.Writes + o.Writes,
	}
}

// Improvement returns the paper's improvement metric,
// 100 * (old - new) / old, in percent.
func Improvement(oldT, newT time.Duration) float64 {
	if oldT == 0 {
		return 0
	}
	return 100 * float64(oldT-newT) / float64(oldT)
}

// Measure runs fn against the given stores, charging their counted I/O
// delta at cost as simulated system time.
func Measure(cost Cost, stores []pagefile.Store, fn func() error) (Timing, error) {
	before := make([]pagefile.StatsSnapshot, len(stores))
	for i, s := range stores {
		before[i] = s.Stats().Snapshot()
	}
	start := time.Now()
	err := fn()
	user := time.Since(start)
	var tm Timing
	tm.User = user
	for i, s := range stores {
		d := s.Stats().Snapshot().Sub(before[i])
		tm.Sys += cost.Charge(d)
		tm.Reads += d.Reads
		tm.Writes += d.Writes
	}
	tm.Elapsed = tm.User + tm.Sys
	return tm, err
}

// Seconds formats a duration as the paper prints times.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds())
}
