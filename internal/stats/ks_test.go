package stats

import (
	"math"
	"testing"
)

func TestKSIdenticalSamples(t *testing.T) {
	// A sample whose empirical CDF is the CDF itself.
	a := []float64{1, 2, 3, 4, 5}
	cdf := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	if d := KolmogorovSmirnov(a, cdf); d != 0 {
		t.Errorf("KS of a sample against its own CDF = %g, want 0", d)
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := []float64{10, 11, 12}
	cdf := []float64{0, 1.0 / 3, 2.0 / 3, 1} // all mass at or below 3
	if d := KolmogorovSmirnov(a, cdf); d != 1 {
		t.Errorf("KS of a sample beyond the CDF's support = %g, want 1", d)
	}
}

func TestKSKnownValue(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sample []float64
		cdf    []float64
		want   float64
	}{
		// Uniform on {2, 3}: on [1, 2) F_n = 0.5 against F = 0.
		{"shifted", []float64{1, 2}, []float64{0, 0, 0.5, 1}, 0.5},
		// Off-integer samples: F_n = 0.5 on [1.5, 2.5), F = 1 from 2.
		{"between jumps", []float64{1.5, 2.5}, []float64{0, 0, 1}, 0.5},
		// Integer samples on the CDF's jumps match it exactly once every
		// tied sample is counted; a walk that compares each tied sample
		// with F(1) alone reads |0.25 − 0.75| = 0.5.
		{"ties on jumps", []float64{1, 1, 1, 2}, []float64{0, 0.75, 1}, 0},
	} {
		if d := KolmogorovSmirnov(tc.sample, tc.cdf); math.Abs(d-tc.want) > 1e-12 {
			t.Errorf("%s: KS = %g, want %g", tc.name, d, tc.want)
		}
	}
}

// geometric draws n samples ⌈X⌉ with X ~ Exp(rate), an integer-valued
// variable with P(⌈X⌉ ≤ t) = 1 − e^{−rate·t}: every sample sits on a jump
// of the CDF geometricCDF tabulates.
func geometric(r *RNG, rate float64, n int) []float64 {
	e := Exponential{Rate: rate}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Ceil(e.Sample(r))
	}
	return out
}

func geometricCDF(rate float64, steps int) []float64 {
	cdf := make([]float64, steps+1)
	for t := range cdf {
		cdf[t] = 1 - math.Exp(-rate*float64(t))
	}
	return cdf
}

func TestKSSameDistributionSampling(t *testing.T) {
	a := geometric(NewRNG(41, 42), 0.2, 800)
	d := KolmogorovSmirnov(a, geometricCDF(0.2, 60))
	if crit := KSCriticalValue(len(a), 0.01); d >= crit {
		t.Errorf("same-distribution KS %g exceeds critical %g", d, crit)
	}
}

func TestKSDifferentDistributionSampling(t *testing.T) {
	a := geometric(NewRNG(43, 44), 0.6, 800)
	d := KolmogorovSmirnov(a, geometricCDF(0.2, 60))
	if crit := KSCriticalValue(len(a), 0.01); d <= crit {
		t.Errorf("different-distribution KS %g below critical %g", d, crit)
	}
}

func TestKSEdgeCases(t *testing.T) {
	if !math.IsNaN(KolmogorovSmirnov(nil, []float64{1})) {
		t.Error("empty sample must yield NaN")
	}
	if !math.IsNaN(KolmogorovSmirnov([]float64{1}, nil)) {
		t.Error("empty CDF must yield NaN")
	}
	if !math.IsNaN(KSCriticalValue(0, 0.05)) {
		t.Error("zero-size critical value must be NaN")
	}
	// Critical value ordering: stricter alpha -> larger threshold.
	c10 := KSCriticalValue(100, 0.10)
	c05 := KSCriticalValue(100, 0.05)
	c01 := KSCriticalValue(100, 0.01)
	if !(c10 < c05 && c05 < c01) {
		t.Errorf("critical values not ordered: %g %g %g", c10, c05, c01)
	}
	if math.Abs(c05-0.136) > 1e-12 {
		t.Errorf("one-sample 5%% critical value at n = 100 is %g, want 1.36/√100", c05)
	}
}
