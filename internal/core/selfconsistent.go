package core

import (
	"fmt"
	"math"
)

// The piece-count distribution ϕ is both an input of the model (through
// the Equation (1) trading power) and a consequence of it: the swarm's
// steady-state ϕ is the distribution of piece counts across peers, which
// with Poisson arrivals is proportional to the expected time a download
// spends at each count (renewal-reward). SelfConsistentPhi closes this
// loop: starting from an initial guess it alternately (a) sweeps the
// download chain under the current ϕ for its expected occupancy and (b)
// replaces ϕ with that occupancy, until the distribution stops moving.
// The paper's Section 6 argues the trading dynamics drive ϕ towards
// uniform; the fixed point makes that claim checkable within the model
// itself.

// SelfConsistentResult reports the fixed-point iteration's outcome.
type SelfConsistentResult struct {
	// Phi is the fixed-point piece-count distribution.
	Phi PieceDist
	// Iterations is the number of outer iterations performed.
	Iterations int
	// FinalDelta is the last L1 change between successive ϕ iterates.
	FinalDelta float64
	// Entropy is the normalized Shannon entropy of the fixed point
	// (1 = uniform).
	Entropy float64
}

// The iteration's constants. Undamped, the map oscillates on some
// chains (an L1 change near 1.5 that never shrinks); half-damping
// converges on every chain probed, within 52 iterations (DESIGN.md
// §17).
const (
	phiDamping = 0.5
	phiTol     = 1e-10
	phiMaxIter = 200
)

// SelfConsistentPhi iterates the occupancy map to its fixed point: each
// step moves ϕ halfway to the occupancy it implies, until the L1 change
// drops below phiTol. A chain that can stay at some piece count forever
// has no finite occupancy, and is an error, as is one that does not
// settle within phiMaxIter iterations.
func SelfConsistentPhi(p Params) (SelfConsistentResult, error) {
	if err := p.Validate(); err != nil {
		return SelfConsistentResult{}, err
	}
	cur := tableFromDist(p.Phi)
	out := SelfConsistentResult{}
	for out.Iterations < phiMaxIter {
		p.Phi = tableDist{p: cur}
		occ, err := occupancy(p)
		if err != nil {
			return SelfConsistentResult{}, err
		}
		next := make([]float64, len(cur))
		delta := 0.0
		for j := 1; j < len(cur); j++ {
			next[j] = (1-phiDamping)*cur[j] + phiDamping*occ[j]
			delta += math.Abs(next[j] - cur[j])
		}
		cur = next
		out.Iterations++
		out.FinalDelta = delta
		if delta < phiTol {
			out.Phi = tableDist{p: cur}
			out.Entropy = PhiEntropy(out.Phi)
			return out, nil
		}
	}
	return SelfConsistentResult{}, fmt.Errorf("core: phi still moves %g (L1) after %d iterations", out.FinalDelta, phiMaxIter)
}

// occupancy returns the normalized expected time a download spends
// holding exactly j pieces (j = 1..B-1): the forward sweep's expected
// visits, summed per level.
func occupancy(p Params) ([]float64, error) {
	k, v, err := visits(p)
	if err != nil {
		return nil, err
	}
	counts := make([]float64, p.B+1)
	total := 0.0
	for j := 1; j < p.B; j++ {
		for _, vs := range v[k.at(j, 0, 0, false):k.at(j+1, 0, 0, false)] {
			counts[j] += vs
		}
		total += counts[j]
	}
	if total == 0 {
		return nil, fmt.Errorf("core: a download visits no level 1..%d", p.B-1)
	}
	for j := 1; j < p.B; j++ {
		counts[j] /= total
	}
	return counts, nil
}

// tableFromDist densifies any PieceDist into a table over 0..B.
func tableFromDist(d PieceDist) []float64 {
	b := d.MaxPieces()
	out := make([]float64, b+1)
	for j := 1; j <= b; j++ {
		out[j] = d.At(j)
	}
	return out
}
