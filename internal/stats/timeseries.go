package stats

import (
	"fmt"
	"math"
	"sort"
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

// ValueAt returns the value in effect at time t under step (zero-order hold)
// interpolation: the value of the latest point with T <= t. Before the first
// point it returns NaN.
func (s *Series) ValueAt(t float64) float64 {
	i := sort.SearchFloat64s(s.T, t)
	// SearchFloat64s returns the first index with T >= t.
	if i < len(s.T) && s.T[i] == t {
		return s.V[i]
	}
	if i == 0 {
		return math.NaN()
	}
	return s.V[i-1]
}

// Resample returns the series sampled at the given times using step
// interpolation.
func (s *Series) Resample(times []float64) *Series {
	out := NewSeries(len(times))
	for _, t := range times {
		// Resampling onto a sorted grid cannot violate ordering.
		_ = out.Append(t, s.ValueAt(t))
	}
	return out
}

// Diff returns the per-interval change series: point i holds
// (T[i+1], V[i+1]-V[i]). The result has Len()-1 points.
func (s *Series) Diff() *Series {
	if len(s.T) < 2 {
		return NewSeries(0)
	}
	out := NewSeries(len(s.T) - 1)
	for i := 1; i < len(s.T); i++ {
		_ = out.Append(s.T[i], s.V[i]-s.V[i-1])
	}
	return out
}

// Rate returns the derivative estimate series (ΔV/ΔT) at each interval.
// Zero-length intervals contribute a 0 rate to avoid Inf poisoning.
func (s *Series) Rate() *Series {
	if len(s.T) < 2 {
		return NewSeries(0)
	}
	out := NewSeries(len(s.T) - 1)
	for i := 1; i < len(s.T); i++ {
		dt := s.T[i] - s.T[i-1]
		r := 0.0
		if dt > 0 {
			r = (s.V[i] - s.V[i-1]) / dt
		}
		_ = out.Append(s.T[i], r)
	}
	return out
}

// MovingAverage returns the series smoothed with a centered window of the
// given half-width (window size 2*halfWidth+1, clipped at the ends).
func (s *Series) MovingAverage(halfWidth int) *Series {
	if halfWidth < 0 {
		halfWidth = 0
	}
	out := NewSeries(len(s.T))
	for i := range s.T {
		lo := i - halfWidth
		if lo < 0 {
			lo = 0
		}
		hi := i + halfWidth
		if hi >= len(s.T) {
			hi = len(s.T) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += s.V[j]
		}
		_ = out.Append(s.T[i], sum/float64(hi-lo+1))
	}
	return out
}

// Downsample returns at most maxPoints points, evenly spaced by index,
// always retaining the first and last point. It returns the receiver when
// already small enough.
func (s *Series) Downsample(maxPoints int) *Series {
	if maxPoints < 2 || len(s.T) <= maxPoints {
		return s
	}
	out := NewSeries(maxPoints)
	step := float64(len(s.T)-1) / float64(maxPoints-1)
	for i := 0; i < maxPoints; i++ {
		j := int(math.Round(float64(i) * step))
		_ = out.Append(s.T[j], s.V[j])
	}
	return out
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
