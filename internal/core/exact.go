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

// phaseOfState classifies a state by region alone: waiting states with
// at most one piece are bootstrap; incomplete states with an empty
// potential set and no connections are the last phase; everything else is
// efficient download. The exact chain does not remember whether the peer
// has booted, so this is not trace.Phaser, the trajectory rule. For
// 0 < b < B they disagree exactly here (TestExactRuleVersusPhaser):
//   - b=1, i=0, n=0 after booting: bootstrap here, efficient there;
//   - i=0, n>0 before booting: efficient here, bootstrap there;
//   - i=0, n>0, 1<b<B after booting: efficient here, last there;
//   - i=0, n=0, b>1 before booting: last here, bootstrap there.
func phaseOfState(p Params, s State) trace.Phase {
	switch {
	case s.B == 0 || (s.B == 1 && s.I == 0 && s.N == 0):
		return trace.PhaseBootstrap
	case s.B < p.B && s.I == 0 && s.N == 0 && s.B > 1:
		return trace.PhaseLast
	default:
		return trace.PhaseEfficient
	}
}

// ExactPhaseDurations computes the expected number of steps spent in each
// phase from joining to completion, using the exact chain's expected-visit
// counts. Only valid for configurations small enough for exact chain
// materialization (see BuildChain).
func ExactPhaseDurations(p Params) (PhaseDurations, error) {
	chain, ss, err := BuildChain(p)
	if err != nil {
		return PhaseDurations{}, err
	}
	visits, err := chain.ExpectedVisits(ss.Index(ss.Initial()), 1e-10, 2_000_000)
	if err != nil {
		return PhaseDurations{}, err
	}
	var by [trace.PhaseLast + 1]float64 // expected visits, indexed by phase
	for idx, v := range visits {
		if v == 0 {
			continue
		}
		s := ss.State(idx)
		if s.B == p.B {
			continue // completed states are absorbing, not a phase
		}
		by[phaseOfState(p, s)] += v
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
// and reports phase occupancy over time.
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
	dist[ss.Index(ss.Initial())] = 1
	record := func(t int, d []float64) {
		for idx, pm := range d {
			if pm == 0 {
				continue
			}
			s := ss.State(idx)
			if s.B == p.B {
				out.Done[t] += pm
				continue
			}
			byPhase[phaseOfState(p, s)][t] += pm
		}
	}
	record(0, dist)
	chain.Evolve(dist, steps, func(t int, d []float64) { record(t, d) })
	return out, nil
}
