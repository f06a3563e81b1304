package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailCandidates are the percentiles a latency tail may be reported at,
// highest first.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// tailPercentile picks the highest candidate percentile with at least ten
// samples beyond it at n samples (50 when none qualifies). Each workload
// fixes its tail percentile from this rule at the op count its runs make,
// so the metric means the same thing on every commit.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match a check written in Python.
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
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m-j*4) / 4
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
