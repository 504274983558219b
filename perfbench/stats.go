package main

import (
	"math"
	"sort"
)

// miss is the latency a failed or refused request contributes: it
// misses every latency limit, so it sorts above every real sample.
var miss = math.Inf(1)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be reported at all.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs
// and how many samples lie strictly beyond its rank. Misses (+Inf)
// take part like any other sample, so a run whose failures exceed the
// tail share reports an infinite tail. xs is not modified.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tail is percentile with the reporting rule applied: ok is false when
// fewer than minBeyond samples lie beyond the quantile, which means
// the run was too short to report that percentile.
func tail(xs []float64, q float64) (v float64, ok bool) {
	v, beyond := percentile(xs, q)
	return v, beyond >= minBeyond
}

// median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
