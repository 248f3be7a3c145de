package stats

import (
	"fmt"
	"math"
)

// Series is a time-indexed sequence of values. T must be non-decreasing;
// constructors and mutators preserve that invariant.
type Series struct {
	T []float64
	V []float64
}

// NewSeries returns an empty series with capacity for n points.
func NewSeries(n int) *Series {
	return &Series{T: make([]float64, 0, n), V: make([]float64, 0, n)}
}

// Append adds a point. It returns an error if t would break time ordering.
func (s *Series) Append(t, v float64) error {
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		return fmt.Errorf("stats: series time went backwards (%g after %g)", t, s.T[n-1])
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
	return nil
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// Last returns the final point, or NaNs when empty.
func (s *Series) Last() (t, v float64) {
	if len(s.T) == 0 {
		return math.NaN(), math.NaN()
	}
	n := len(s.T) - 1
	return s.T[n], s.V[n]
}

// Grid returns n+1 evenly spaced times covering [lo, hi].
func Grid(lo, hi float64, n int) []float64 {
	if n < 1 {
		return []float64{lo}
	}
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return out
}
