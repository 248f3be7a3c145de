package core

// Exact transient analysis of the download chain via the fundamental
// matrix: expected time spent in each phase and in each (n, b, i) region,
// computed without sampling. The paper (Section 6) leaves "exact analysis
// ... including transient effects" as future work; for state spaces that
// fit in memory this file provides it.

import "repro/internal/trace"

// PhaseDurations holds expected step counts per download phase.
type PhaseDurations struct {
	Bootstrap float64
	Efficient float64
	Last      float64
}

// Total returns the expected download time in steps.
func (d PhaseDurations) Total() float64 { return d.Bootstrap + d.Efficient + d.Last }

// ExactPhaseDurations computes the expected number of steps spent in each
// phase from joining to completion, using the exact chain's expected-visit
// counts. A step counts in the phase of the product state it lands in, as
// EnsembleAccum labels a trajectory: the join state is not counted and the
// completing step is (booted, so efficient, whenever B ≥ 2). The expected
// landings in each state are the visit row times the kernel, one Step of
// it. Only valid for configurations small enough for exact chain
// materialization (see BuildChain).
func ExactPhaseDurations(p Params) (PhaseDurations, error) {
	chain, ss, err := BuildChain(p)
	if err != nil {
		return PhaseDurations{}, err
	}
	visits, err := chain.ExpectedVisits(ss.Index(ss.Initial(), false), 1e-10, 2_000_000)
	if err != nil {
		return PhaseDurations{}, err
	}
	var by [trace.PhaseLast + 1]float64 // expected landings, indexed by phase
	for idx, v := range chain.Step(visits) {
		if v != 0 {
			by[ss.Phase(idx)] += v
		}
	}
	return PhaseDurations{
		Bootstrap: by[trace.PhaseBootstrap], Efficient: by[trace.PhaseEfficient], Last: by[trace.PhaseLast],
	}, nil
}

// PhaseOccupancy returns, for each step t = 0..steps, the probability
// that a (not yet completed) peer is in each phase at time t, plus the
// cumulative completion probability — the transient view of the download
// process.
type PhaseOccupancy struct {
	// Bootstrap[t], Efficient[t], Last[t] are phase probabilities at
	// step t; Done[t] is the probability of having completed by t.
	Bootstrap []float64
	Efficient []float64
	Last      []float64
	Done      []float64
}

// TransientPhases evolves the exact chain for the given number of steps
// and reports phase occupancy over time, each product state (state,
// booted) labelled by trace.Phaser.
func TransientPhases(p Params, steps int) (PhaseOccupancy, error) {
	chain, ss, err := BuildChain(p)
	if err != nil {
		return PhaseOccupancy{}, err
	}
	out := PhaseOccupancy{
		Bootstrap: make([]float64, steps+1),
		Efficient: make([]float64, steps+1),
		Last:      make([]float64, steps+1),
		Done:      make([]float64, steps+1),
	}
	byPhase := [...][]float64{trace.PhaseBootstrap: out.Bootstrap, trace.PhaseEfficient: out.Efficient, trace.PhaseLast: out.Last}
	dist := make([]float64, ss.Size())
	dist[ss.Index(ss.Initial(), false)] = 1
	record := func(t int, d []float64) {
		for idx, pm := range d {
			if pm == 0 {
				continue
			}
			if s, _ := ss.State(idx); s.B == p.B {
				out.Done[t] += pm
				continue
			}
			byPhase[ss.Phase(idx)][t] += pm
		}
	}
	record(0, dist)
	chain.Evolve(dist, steps, func(t int, d []float64) { record(t, d) })
	return out, nil
}
