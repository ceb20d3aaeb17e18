package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// samples; 0 when there are none.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[quantileRank(len(sorted), q)-1]
}

// quantileRank is the 1-based nearest-rank position of the q-quantile
// among n samples.
func quantileRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailSupported reports whether at least ten samples lie beyond the
// q-quantile of n samples: the rule for printing a tail percentile.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-quantileRank(n, q) >= 10
}

// latency is the summary of one op class's samples.
type latency struct {
	n      int
	p50us  float64
	p99us  float64
	hasP99 bool // false: fewer than ten samples beyond p99, not printed
}

func summarize(ns []int64) latency {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	l := latency{n: len(ns), p50us: float64(quantile(ns, 0.5)) / 1e3, p99us: float64(quantile(ns, 0.99)) / 1e3}
	l.hasP99 = tailSupported(len(ns), 0.99)
	return l
}

// spread summarises repeated measurements of one metric (-repeat).
type spread struct {
	median, q1, q3  float64
	min, max        float64
	iqrOverMedian   float64
	rangeOverMedian float64
}

// spreadOf uses the same quartile rule as Python's
// statistics.quantiles(values, n=4) (exclusive method), which is what
// the acceptance check applies to ten runs.
func spreadOf(vals []float64) spread {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return spread{}
	}
	at := func(k int) float64 { // k-th of 4 quantile cut points
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	sp := spread{median: at(2), q1: at(1), q3: at(3), min: s[0], max: s[n-1]}
	if sp.median != 0 {
		sp.iqrOverMedian = (sp.q3 - sp.q1) / math.Abs(sp.median)
		sp.rangeOverMedian = (sp.max - sp.min) / math.Abs(sp.median)
	}
	return sp
}
