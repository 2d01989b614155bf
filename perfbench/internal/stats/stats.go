// Package stats holds the order statistics the benchmark reports.
package stats

import (
	"math"
	"slices"
)

// MinBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail quantile resting on fewer is one slow sample.
const MinBeyond = 10

// Median returns the median of xs (the mean of the middle two for an
// even count), or NaN for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the average of xs, or NaN for no samples.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it may be reported: ok is false unless at least MinBeyond
// samples lie strictly beyond its rank.
func Percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n-rank < MinBeyond {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], true
}
