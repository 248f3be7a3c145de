package stats

import (
	"math"
	"sort"
)

// KolmogorovSmirnov returns the one-sample KS statistic
// D = sup_x |F_n(x) − F(x)| between the empirical CDF of sample and a
// CDF on the integers: F(x) = cdf[⌊x⌋] for 0 ≤ x < len(cdf), held at
// its last entry beyond the table and 0 below 0. It returns NaN when
// either slice is empty. The sample is not modified.
func KolmogorovSmirnov(sample, cdf []float64) float64 {
	if len(sample) == 0 || len(cdf) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	n := float64(len(s))
	// F is constant, at f, on each of (−∞, 0), [0, 1), …, [L, ∞), and
	// F_n only rises inside one, so the sup sits at an interval's ends:
	// lo, F_n at the left edge with every sample tied there counted, and
	// F_n's left limit at the right edge.
	var d, f, lo float64
	i := 0
	for j := 0; j <= len(cdf); j++ {
		for i < len(s) && (j == len(cdf) || s[i] < float64(j)) {
			i++
		}
		d = math.Max(d, math.Max(math.Abs(lo-f), math.Abs(float64(i)/n-f)))
		if j == len(cdf) {
			break
		}
		for i < len(s) && s[i] <= float64(j) {
			i++
		}
		lo, f = float64(i)/n, cdf[j]
	}
	return d
}

// KSCriticalValue returns the approximate one-sample KS critical value
// c/√n for n observations at significance level alpha (supported: 0.10,
// 0.05, 0.01): a sample with D below it is consistent with the CDF.
func KSCriticalValue(n int, alpha float64) float64 {
	if n < 1 {
		return math.NaN()
	}
	var c float64
	switch {
	case alpha <= 0.01:
		c = 1.63
	case alpha <= 0.05:
		c = 1.36
	default:
		c = 1.22
	}
	return c / math.Sqrt(float64(n))
}
