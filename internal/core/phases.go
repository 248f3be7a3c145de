package core

import (
	"math"

	"repro/internal/trace"
)

// PhaseBreakdown counts the steps a single trajectory spent in each phase.
type PhaseBreakdown struct {
	Bootstrap int
	Efficient int
	Last      int
}

// ClassifyPhases counts each step of a trajectory in the phase of the
// state it lands in, as trace.Phaser labels it: bootstrap until the peer
// first holds a piece and has a non-empty potential set (that step is
// efficient), then last while the potential set is empty and 1 < b < B,
// and efficient otherwise.
func ClassifyPhases(p Params, t Trajectory) PhaseBreakdown {
	var out PhaseBreakdown
	ph := trace.Phaser{B: p.B}
	for step := 1; step < len(t); step++ {
		out.count(ph.Next(t[step].B, t[step].I))
	}
	return out
}

func (pb *PhaseBreakdown) count(ph trace.Phase) {
	switch ph {
	case trace.PhaseBootstrap:
		pb.Bootstrap++
	case trace.PhaseLast:
		pb.Last++
	default:
		pb.Efficient++
	}
}

// PhaseSummary aggregates phase breakdowns over an ensemble of runs.
type PhaseSummary struct {
	Runs          int
	MeanBootstrap float64
	MeanEfficient float64
	MeanLast      float64
	// FracStuckBootstrap is the fraction of runs that waited at least one
	// step in the bootstrap phase beyond the joining transition.
	FracStuckBootstrap float64
	// FracLastPhase is the fraction of runs that entered the last
	// download phase at all.
	FracLastPhase float64
}

// phaseAccumulator sums phase breakdowns over runs. It is the phase part
// of an EnsembleAccum and crosses the wire with it.
type phaseAccumulator struct {
	Bootstrap int64
	Efficient int64
	Last      int64
	// StuckBootstrap and HasLast count runs, not steps.
	StuckBootstrap int64
	HasLast        int64
}

func (a *phaseAccumulator) add(pb PhaseBreakdown) {
	a.Bootstrap += int64(pb.Bootstrap)
	a.Efficient += int64(pb.Efficient)
	a.Last += int64(pb.Last)
	if pb.Bootstrap > 1 {
		a.StuckBootstrap++
	}
	if pb.Last > 0 {
		a.HasLast++
	}
}

func (a *phaseAccumulator) merge(o phaseAccumulator) {
	a.Bootstrap += o.Bootstrap
	a.Efficient += o.Efficient
	a.Last += o.Last
	a.StuckBootstrap += o.StuckBootstrap
	a.HasLast += o.HasLast
}

func (a phaseAccumulator) summary(runs int) PhaseSummary {
	if runs == 0 {
		return PhaseSummary{}
	}
	n := float64(runs)
	return PhaseSummary{
		Runs:               runs,
		MeanBootstrap:      float64(a.Bootstrap) / n,
		MeanEfficient:      float64(a.Efficient) / n,
		MeanLast:           float64(a.Last) / n,
		FracStuckBootstrap: float64(a.StuckBootstrap) / n,
		FracLastPhase:      float64(a.HasLast) / n,
	}
}

// ExpectedBootstrapWait returns 1/α, the expected sojourn (in steps) of a
// peer stuck in state (0, 1, 0), per Section 6. It returns +Inf for α = 0.
func ExpectedBootstrapWait(p Params) float64 { return geometricWait(p.Alpha) }

// ExpectedLastPhaseWait returns 1/γ, the expected sojourn of a peer stuck
// with an empty potential set in the last download phase.
func ExpectedLastPhaseWait(p Params) float64 { return geometricWait(p.Gamma) }

func geometricWait(q float64) float64 {
	if q <= 0 {
		return math.Inf(1)
	}
	return 1 / q
}
