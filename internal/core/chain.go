package core

import (
	"fmt"

	"repro/internal/markov"
	"repro/internal/stats"
	"repro/internal/trace"
)

// State is one point of the download-evolution state space.
type State struct {
	N int // active connections, 0..K
	B int // downloaded pieces, 0..B
	I int // potential-set size, 0..S
}

// StateSpace provides dense indexing of the exact chain's product states
// (n, b, i, booted): a State and the booted flag trace.Phaser carries.
type StateSpace struct {
	p Params
}

// NewStateSpace returns the indexer for the given parameters.
func NewStateSpace(p Params) (*StateSpace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &StateSpace{p: p}, nil
}

// Size returns the number of product states, 2·(K+1)·(B+1)·(S+1).
func (ss *StateSpace) Size() int {
	return 2 * (ss.p.K + 1) * (ss.p.B + 1) * (ss.p.S + 1)
}

// Index maps a product state to its dense index.
func (ss *StateSpace) Index(s State, booted bool) int {
	idx := 2 * ((s.N*(ss.p.B+1)+s.B)*(ss.p.S+1) + s.I)
	if booted {
		idx++
	}
	return idx
}

// State maps a dense index back to the product state.
func (ss *StateSpace) State(idx int) (State, bool) {
	rest := idx / 2
	i := rest % (ss.p.S + 1)
	rest /= ss.p.S + 1
	return State{N: rest / (ss.p.B + 1), B: rest % (ss.p.B + 1), I: i}, idx%2 == 1
}

// Phase labels a product state as trace.Phaser labels a step landing in it.
func (ss *StateSpace) Phase(idx int) trace.Phase {
	s, booted := ss.State(idx)
	ph := trace.Phaser{B: ss.p.B, Booted: booted}
	return ph.Next(s.B, s.I)
}

// Initial returns the joining state (0, 0, 0); it is not booted.
func (ss *StateSpace) Initial() State { return State{} }

// Absorbing returns the departure state (0, B, 0).
func (ss *StateSpace) Absorbing() State { return State{B: ss.p.B} }

// maxExactStates bounds the number of product states for which exact
// chain materialization is permitted; beyond it use Monte-Carlo sampling
// (Trajectories) instead.
const maxExactStates = 2_000_000

// BuildChain materializes the transition kernel over the product states
// (n, b, i, booted) as a sparse Markov chain: the f/g/h kernel on
// (n, b, i), and booted' set by trace.Phaser labelling (b', i'). Intended
// for small-to-moderate configurations (tests, exact phase-sojourn
// analysis); paper-scale settings should use the Monte-Carlo sampler.
func BuildChain(p Params) (*markov.Chain, *StateSpace, error) {
	ss, err := NewStateSpace(p)
	if err != nil {
		return nil, nil, err
	}
	if ss.Size() > maxExactStates {
		return nil, nil, fmt.Errorf("core: state space too large for exact build (%d states); use Trajectories", ss.Size())
	}
	bld := markov.NewBuilder(ss.Size())
	for idx := 0; idx < ss.Size(); idx += 2 { // idx is s unbooted, idx+1 booted
		s, _ := ss.State(idx)
		if s.B == p.B {
			// The peer exits immediately after downloading all B pieces
			// (Section 3.1), so every completed state collapses into the
			// canonical absorbing state (0, B, 0), booted or not.
			for booted := range 2 {
				if err := bld.Add(idx+booted, ss.Index(ss.Absorbing(), booted == 1), 1); err != nil {
					return nil, nil, err
				}
			}
			continue
		}
		bNext := F(p.B, s.N, s.B)
		for _, gi := range G(p, s.N, s.B, s.I) {
			hs := H(p, s.N, s.B, gi.Value)
			for booted := range 2 {
				ph := trace.Phaser{B: p.B, Booted: booted == 1}
				ph.Next(bNext, gi.Value)
				for _, hn := range hs {
					next := State{N: hn.Value, B: bNext, I: gi.Value}
					if bNext == p.B {
						next = ss.Absorbing()
					}
					if err := bld.Add(idx+booted, ss.Index(next, ph.Booted), gi.P*hn.P); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
	chain, err := bld.Build()
	if err != nil {
		return nil, nil, err
	}
	return chain, ss, nil
}

// Step advances a state one transition step without materializing the
// chain, drawing i' and n' from their exact distributions.
func Step(p Params, r *stats.RNG, s State) State {
	bNext := F(p.B, s.N, s.B)
	iNext := sampleOutcomes(r, G(p, s.N, s.B, s.I))
	nNext := sampleOutcomes(r, H(p, s.N, s.B, iNext))
	return State{N: nNext, B: bNext, I: iNext}
}

// ExpectedDownloadTime computes, via the exact chain, the expected number
// of steps from joining until absorption in (0, B, 0). Only valid for
// state spaces small enough for exact materialization.
func ExpectedDownloadTime(p Params) (float64, error) {
	chain, ss, err := BuildChain(p)
	if err != nil {
		return 0, err
	}
	times, err := chain.AbsorptionTime(1e-10, 1_000_000)
	if err != nil {
		return 0, err
	}
	return times[ss.Index(ss.Initial(), false)], nil
}
