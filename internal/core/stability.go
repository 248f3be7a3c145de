package core

import "errors"

// Entropy returns the Section 6 system entropy
//
//	E = min{d_1, ..., d_B} / max{d_1, ..., d_B}
//
// over the replication degrees d of the B pieces. E = 1 means perfectly
// balanced replication; E -> 0 means some piece has (relatively) vanished,
// which the paper identifies with instability. An empty or all-zero degree
// vector returns 0.
func Entropy(degrees []int) float64 {
	if len(degrees) == 0 {
		return 0
	}
	minD, maxD := degrees[0], degrees[0]
	for _, d := range degrees[1:] {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD <= 0 {
		return 0
	}
	return float64(minD) / float64(maxD)
}

// StabilityAssessment summarizes a drift analysis of an entropy series.
type StabilityAssessment struct {
	// Initial and Final are the first and last entropy observations.
	Initial, Final float64
	// Trend is the least-squares slope of entropy against time.
	Trend float64
	// Stable reports the paper's criterion: the long-run entropy drifts
	// towards 1 rather than 0.
	Stable bool
}

// ErrShortSeries reports an entropy series too short to assess.
var ErrShortSeries = errors.New("core: entropy series needs at least 2 points")

// AssessStability fits a linear trend to an entropy time series and
// applies the paper's stability criterion: the system is stable when the
// entropy's long-run drift is towards 1 (non-negative trend, or a final
// value close to 1), and unstable when it decays towards 0.
func AssessStability(times, entropy []float64) (StabilityAssessment, error) {
	if len(times) != len(entropy) || len(times) < 2 {
		return StabilityAssessment{}, ErrShortSeries
	}
	slope := leastSquaresSlope(times, entropy)
	final := entropy[len(entropy)-1]
	return StabilityAssessment{
		Initial: entropy[0],
		Final:   final,
		Trend:   slope,
		Stable:  final >= 0.5 && (slope >= 0 || final >= 0.9),
	}, nil
}

func leastSquaresSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
