package trace

import (
	"errors"
	"fmt"
)

// Regime classifies a download trace into the paper's three qualitative
// instances (Figure 2).
type Regime int

// The Figure 2 regimes.
const (
	// RegimeSmooth: no predominant bootstrap or last download phase —
	// Figure 2(a)/(b).
	RegimeSmooth Regime = iota + 1
	// RegimeLastPhase: a significant last download phase —
	// Figure 2(c)/(d).
	RegimeLastPhase
	// RegimeBootstrap: the peer is stuck in its bootstrap phase for a
	// significant time — Figure 2(e)/(f).
	RegimeBootstrap
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case RegimeSmooth:
		return "smooth"
	case RegimeLastPhase:
		return "last-phase"
	case RegimeBootstrap:
		return "bootstrap"
	default:
		return "unknown"
	}
}

// PhaseReport is the analyzer's segmentation of one trace.
type PhaseReport struct {
	// Duration is the observed span of the trace.
	Duration float64
	// BootstrapTime is the time from start until the peer first holds a
	// piece and has a non-empty potential set.
	BootstrapTime float64
	// LastPhaseTime is the total time spent, after bootstrap, with an
	// empty potential set while still incomplete.
	LastPhaseTime float64
	// EfficientTime is the remainder.
	EfficientTime float64
	// TailStall is the length of the final contiguous stall (empty
	// potential set) before completion or end of trace.
	TailStall float64
	// Completed reports whether the download finished within the trace.
	Completed bool
	// Regime is the Figure 2 classification.
	Regime Regime
	// MeanRate is the average download rate in bytes per time unit over
	// the whole observed span.
	MeanRate float64
}

// regimeFraction is the share of total time a phase must occupy to count
// as "significant" for regime classification.
const regimeFraction = 0.15

// ErrEmptyTrace reports a trace with fewer than two samples.
var ErrEmptyTrace = errors.New("trace: too few samples to analyze")

// Analyze segments a download trace into the three phases of the
// multiphased model and classifies its regime.
func Analyze(d *Download) (PhaseReport, error) {
	if len(d.Samples) < 2 {
		return PhaseReport{}, ErrEmptyTrace
	}
	if err := d.Validate(); err != nil {
		return PhaseReport{}, err
	}
	first := d.Samples[0]
	last := d.Samples[len(d.Samples)-1]
	rep := PhaseReport{
		Duration:  last.T - first.T,
		Completed: d.Complete(),
	}
	if rep.Duration > 0 {
		rep.MeanRate = float64(last.Bytes-first.Bytes) / rep.Duration
	}

	// One pass labels each interval's first sample (Phaser). Bootstrap
	// ends at the first sample that is not bootstrap; after it, each
	// interval counts in the phase of the sample it starts from. A peer
	// that boots only at the last sample spent the whole trace booting.
	ph := Phaser{B: d.Meta.Pieces}
	bootEnd := -1
	for i, s := range d.Samples[:len(d.Samples)-1] {
		phase := ph.Next(s.Pieces, s.Potential)
		if phase == PhaseBootstrap {
			continue
		}
		if bootEnd < 0 {
			bootEnd = i
		}
		if dt := d.Samples[i+1].T - s.T; phase == PhaseLast {
			rep.LastPhaseTime += dt
			rep.TailStall += dt
		} else {
			rep.TailStall = 0
		}
	}
	if bootEnd < 0 {
		// Never escaped before the last sample: all of it is bootstrap.
		rep.BootstrapTime = rep.Duration
		rep.Regime = RegimeBootstrap
		return rep, nil
	}
	rep.BootstrapTime = d.Samples[bootEnd].T - first.T
	rep.EfficientTime = rep.Duration - rep.BootstrapTime - rep.LastPhaseTime
	if rep.EfficientTime < 0 {
		rep.EfficientTime = 0
	}

	switch {
	case rep.BootstrapTime >= regimeFraction*rep.Duration:
		rep.Regime = RegimeBootstrap
	case rep.LastPhaseTime >= regimeFraction*rep.Duration:
		rep.Regime = RegimeLastPhase
	default:
		rep.Regime = RegimeSmooth
	}
	return rep, nil
}

// String renders the report for CLI output.
func (r PhaseReport) String() string {
	return fmt.Sprintf(
		"duration=%.1f bootstrap=%.1f efficient=%.1f last=%.1f tail-stall=%.1f completed=%v regime=%s",
		r.Duration, r.BootstrapTime, r.EfficientTime, r.LastPhaseTime,
		r.TailStall, r.Completed, r.Regime)
}
