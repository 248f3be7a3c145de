package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark will print it: with fewer, the "percentile" is a handful of
// outliers and does not repeat.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// ascending samples: the smallest value with at least q of the samples
// at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supported reports whether at least minBeyond samples lie strictly
// beyond the nearest-rank q-quantile of n samples.
func supported(n int, q float64) bool {
	if n == 0 {
		return false
	}
	rank := int(math.Ceil(q * float64(n)))
	return n-rank >= minBeyond
}

// tail returns the q-quantile of sorted, or 0 when the sample cannot
// support it (see minBeyond). Zero is "not printed".
func tail(sorted []float64, q float64) float64 {
	if !supported(len(sorted), q) {
		return 0
	}
	return percentile(sorted, q)
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for no values: a layer nothing reached.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, 0.5)
}

// quartiles returns the first and third quartile of xs with the
// arithmetic of Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so spreads printed here are the ones the acceptance rule
// computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the window-to-window steadiness of a throughput-type
// metric, printed beside its median.
type spread struct {
	min, max float64
	// iqrShare is (Q3 − Q1) / median.
	iqrShare float64
}

func spreadOf(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := spread{min: xs[0], max: xs[0]}
	for _, x := range xs {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	if m := median(xs); m != 0 {
		q1, q3 := quartiles(xs)
		s.iqrShare = (q3 - q1) / m
	}
	return s
}
