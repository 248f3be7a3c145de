package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// FitResult holds model-parameter estimates extracted from a set of
// download traces — the inverse direction of the paper's Section 4
// validation: instead of checking model output against traces, recover
// the model's inputs (α, γ, and the potential-set level) from them.
type FitResult struct {
	// Traces is the number of traces the fit used.
	Traces int
	// Alpha is the estimated bootstrap escape probability per sample
	// interval: 1 / (mean bootstrap wait in sample steps).
	Alpha float64
	// Gamma is the estimated last-phase escape probability per sample
	// interval.
	Gamma float64
	// PotentialRatio is the mean mid-download potential-set size divided
	// by the neighbor cap — an empirical stand-in for p_(b+n).
	PotentialRatio float64
	// MeanCompletion is the mean completion time of completed traces, in
	// trace time units.
	MeanCompletion float64
	// MedianSampleInterval is the detected instrumentation period.
	MedianSampleInterval float64
}

// ErrNoTraces reports an empty fit input.
var ErrNoTraces = errors.New("trace: no traces to fit")

// Fit estimates multiphased-model parameters from download traces.
// Traces that cannot be analyzed are skipped; fitting requires at least
// one analyzable trace.
func Fit(traces []*Download) (FitResult, error) {
	if len(traces) == 0 {
		return FitResult{}, ErrNoTraces
	}
	var (
		bootWaits  []float64
		stallTimes []float64
		ratios     []float64
		compTimes  []float64
		intervals  []float64
	)
	used := 0
	for _, d := range traces {
		rep, err := Analyze(d)
		if err != nil {
			continue
		}
		used++
		bootWaits = append(bootWaits, rep.BootstrapTime)
		if rep.LastPhaseTime > 0 {
			stallTimes = append(stallTimes, rep.LastPhaseTime)
		}
		if rep.Completed {
			compTimes = append(compTimes, rep.Duration)
		}
		if r, ok := midPotentialRatio(d); ok {
			ratios = append(ratios, r)
		}
		intervals = append(intervals, sampleIntervals(d)...)
	}
	if used == 0 {
		return FitResult{}, fmt.Errorf("%w: none analyzable", ErrNoTraces)
	}
	interval := median(intervals)
	out := FitResult{
		Traces:               used,
		PotentialRatio:       stats.Mean(ratios),
		MeanCompletion:       stats.Mean(compTimes),
		MedianSampleInterval: interval,
	}
	// Escape probabilities per sample step: the wait is geometric with
	// mean 1/p, so p = interval / meanWait. Zero observed waits mean the
	// phase effectively never binds; report 1 (instant escape).
	out.Alpha = escapeProb(stats.Mean(bootWaits), interval)
	out.Gamma = escapeProb(stats.Mean(stallTimes), interval)
	return out, nil
}

func escapeProb(meanWait, interval float64) float64 {
	if math.IsNaN(meanWait) || meanWait <= 0 || interval <= 0 {
		return 1
	}
	p := interval / meanWait
	if p > 1 {
		return 1
	}
	return p
}

// midPotentialRatio averages Potential/NeighborCap over the middle third
// of the download (by piece count).
func midPotentialRatio(d *Download) (float64, bool) {
	if d.Meta.NeighborCap <= 0 || d.Meta.Pieces <= 0 {
		return 0, false
	}
	lo := d.Meta.Pieces / 3
	hi := 2 * d.Meta.Pieces / 3
	sum, n := 0.0, 0
	for _, s := range d.Samples {
		if s.Pieces >= lo && s.Pieces < hi {
			sum += float64(s.Potential) / float64(d.Meta.NeighborCap)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

func sampleIntervals(d *Download) []float64 {
	out := make([]float64, 0, len(d.Samples))
	for i := 1; i < len(d.Samples); i++ {
		if dt := d.Samples[i].T - d.Samples[i-1].T; dt > 0 {
			out = append(out, dt)
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// String renders the fit for CLI output.
func (f FitResult) String() string {
	return fmt.Sprintf(
		"fit over %d traces: alpha=%.4g gamma=%.4g potential-ratio=%.3f mean-completion=%.1f (sample interval %.3g)",
		f.Traces, f.Alpha, f.Gamma, f.PotentialRatio, f.MeanCompletion, f.MedianSampleInterval)
}
