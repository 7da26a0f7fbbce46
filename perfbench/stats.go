package main

import (
	"math"
	"sort"
)

// failedLatency is a failed operation's latency: slower than every
// limit, so a failure can only push a percentile up.
var failedLatency = math.Inf(1)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank pct-th percentile of sorted
// latencies, and false when fewer than minTail samples lie beyond it
// (p90 of fewer than 100 operations) or there are no samples. The
// median needs only one sample.
func percentile(sorted []float64, pct int) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (n*pct + 99) / 100 // ceil(n*pct/100), 1-based
	if rank < 1 {
		rank = 1
	}
	if pct > 50 && n-rank < minTail {
		return 0, false
	}
	return sorted[rank-1], true
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, the spread the benchmark is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= n:
			q[i-1] = s[n-1]
		default:
			q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
	}
	return q[0], q[1], q[2]
}

// median of xs (the middle quartile).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
