package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, 32.0/7)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) must be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of one point must be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty must be NaN")
	}
	if !math.IsNaN(Quantile(xs, 1.5)) {
		t.Error("Quantile outside [0,1] must be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var acc Accumulator
		for _, x := range xs {
			acc.Add(x)
		}
		scale := 1.0 + math.Abs(Mean(xs)) + Variance(xs)
		return almostEqual(acc.Mean(), Mean(xs), 1e-9*scale) &&
			almostEqual(acc.Variance(), Variance(xs), 1e-7*scale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorMinMax(t *testing.T) {
	var acc Accumulator
	if !math.IsNaN(acc.Min()) || !math.IsNaN(acc.Max()) || !math.IsNaN(acc.Mean()) {
		t.Error("empty accumulator must report NaN")
	}
	for _, x := range []float64{3, -1, 7, 2} {
		acc.Add(x)
	}
	if acc.Min() != -1 || acc.Max() != 7 {
		t.Errorf("min/max = %g/%g, want -1/7", acc.Min(), acc.Max())
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("unexpected summary %+v", s)
	}
}

// TestSummarizeMatchesQuantile holds Summarize's quartiles bit-equal to
// three Quantile calls, from one sorted copy: one allocation a call.
func TestSummarizeMatchesQuantile(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, c := range []struct {
		name   string
		xs     []float64
		allocs float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4.5}, 1},
		{"even", []float64{9, 1, 7, 3, 3, 10.25, -2, 0.1}, 1},
		{"odd", []float64{5, 1e9, -3.5, 2, 2, 8, 0.3}, 1},
	} {
		orig := slices.Clone(c.xs)
		s := Summarize(c.xs)
		if !slices.Equal(c.xs, orig) {
			t.Errorf("%s: Summarize modified its input", c.name)
		}
		for _, q := range []struct {
			got float64
			q   float64
		}{{s.P25, 0.25}, {s.Median, 0.5}, {s.P75, 0.75}} {
			if want := Quantile(c.xs, q.q); !same(q.got, want) {
				t.Errorf("%s: q%g = %v, Quantile says %v", c.name, q.q, q.got, want)
			}
		}
		if got := testing.AllocsPerRun(20, func() { Summarize(c.xs) }); got != c.allocs {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.allocs)
		}
	}
}
