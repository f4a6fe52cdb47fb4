package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending, leaving v alone.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile (0..1) off a sorted sample by nearest
// rank; NaN for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// median is the middle value, or the mean of the middle two; NaN for an
// empty sample.
func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return math.NaN()
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// topPercentile is the highest percentile that still has ten samples
// beyond it, and its value; ok is false below twenty samples.
func topPercentile(sorted []float64) (pct, value float64, ok bool) {
	n := len(sorted)
	if n < 20 {
		return 0, 0, false
	}
	return 100 * float64(n-10) / float64(n), sorted[n-11], true
}

// msOf converts nanosecond stamps' differences to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// quartiles returns Q1, median, Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the driver computes spreads with. Needs two values or more.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := min(max(int(pos), 1), n-1)      // beyond the ends Python extrapolates
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / med)
}
