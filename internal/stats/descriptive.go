package stats

import (
	"math"
	"slices"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or NaN when fewer
// than two observations are available.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// Stddev returns the unbiased sample standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extrema of xs, or (NaN, NaN) for an empty slice.
func MinMax(xs []float64) (minVal, maxVal float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	minVal, maxVal = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minVal {
			minVal = x
		}
		if x > maxVal {
			maxVal = x
		}
	}
	return minVal, maxVal
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN for empty input
// or q outside [0, 1]. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile over a sorted, non-empty sample and a q in
// [0, 1].
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the standard descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
}

// Summarize computes a Summary of xs. Its three quantiles share one
// sorted copy of xs.
func Summarize(xs []float64) Summary {
	minVal, maxVal := MinMax(xs)
	out := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Stddev: Stddev(xs),
		Min:    minVal,
		P25:    math.NaN(),
		Median: math.NaN(),
		P75:    math.NaN(),
		Max:    maxVal,
	}
	if len(xs) > 0 {
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		out.P25 = quantileSorted(sorted, 0.25)
		out.Median = quantileSorted(sorted, 0.5)
		out.P75 = quantileSorted(sorted, 0.75)
	}
	return out
}

// Accumulator computes running mean and variance with Welford's algorithm,
// so metrics can be collected in one pass without storing samples.
type Accumulator struct {
	n      int
	mean   float64
	m2     float64
	minVal float64
	maxVal float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.minVal, a.maxVal = x, x
	} else {
		if x < a.minVal {
			a.minVal = x
		}
		if x > a.maxVal {
			a.maxVal = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Mean returns the running mean, or NaN when empty.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the running unbiased sample variance, or NaN for n < 2.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// Min returns the smallest observation, or NaN when empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.minVal
}

// Max returns the largest observation, or NaN when empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.maxVal
}
