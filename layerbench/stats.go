package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method: the m-th cut point sits at position m·(n+1)/4 of
// the sorted data, interpolated linearly). It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(m int) float64 {
		j := min(max(m*(n+1)/4, 1), n-1)
		// Like Python, delta comes from the clamped j, so tiny samples
		// extrapolate rather than saturate.
		delta := float64(m*(n+1)-j*4) / 4
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median — the
// steadiness figure a run set is accepted on.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// minTail is how many samples must lie beyond a reported p99: fewer, and
// the "p99" is an anecdote about the slowest handful of requests.
const minTail = 10

// p99 returns the 99th percentile of xs (nearest rank) and whether the
// sample is large enough to report it: at least minTail samples must lie
// strictly beyond the percentile's rank, i.e. len(xs) ≥ 100·minTail.
func p99(xs []float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(0.99 * float64(n))) // 1-based nearest rank
	return s[rank-1], n-rank >= minTail
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
