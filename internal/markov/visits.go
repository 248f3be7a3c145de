package markov

import (
	"errors"
	"fmt"
	"math"
)

// ExpectedVisits returns, for a chain with absorbing states, the expected
// number of times each transient state is visited before absorption when
// starting from the given state (the corresponding row of the fundamental
// matrix N = (I - Q)^-1). Absorbing states report 0; the start state
// counts its initial visit.
//
// The row is computed by Gauss–Seidel iteration on v = e_start + v·Q,
// which converges for any absorbing chain without materializing N.
func (c *Chain) ExpectedVisits(start int, tol float64, maxIter int) ([]float64, error) {
	n := len(c.rows)
	if start < 0 || start >= n {
		return nil, ErrBadState
	}
	absorbing := make([]bool, n)
	anyAbsorbing := false
	for i := range c.rows {
		absorbing[i] = c.IsAbsorbing(i)
		anyAbsorbing = anyAbsorbing || absorbing[i]
	}
	if !anyAbsorbing {
		return nil, errors.New("markov: chain has no absorbing state")
	}
	if absorbing[start] {
		return make([]float64, n), nil
	}

	// incoming[j] lists transient predecessors of j with their
	// probabilities, excluding self-loops (handled via 1/(1-selfP)).
	type inEdge struct {
		from int
		p    float64
	}
	incoming := make([][]inEdge, n)
	selfP := make([]float64, n)
	for i := range c.rows {
		if absorbing[i] {
			continue
		}
		for _, tr := range c.rows[i] {
			if tr.To == i {
				selfP[i] = tr.P
				continue
			}
			if !absorbing[tr.To] {
				incoming[tr.To] = append(incoming[tr.To], inEdge{from: i, p: tr.P})
			}
		}
	}
	for i := range selfP {
		if !absorbing[i] && selfP[i] >= 1 {
			return nil, fmt.Errorf("markov: state %d is a non-absorbing trap", i)
		}
	}

	v := make([]float64, n)
	for it := 0; it < maxIter; it++ {
		maxDelta := 0.0
		for j := 0; j < n; j++ {
			if absorbing[j] {
				continue
			}
			sum := 0.0
			if j == start {
				sum = 1
			}
			for _, e := range incoming[j] {
				sum += v[e.from] * e.p
			}
			next := sum / (1 - selfP[j])
			if d := math.Abs(next - v[j]); d > maxDelta {
				maxDelta = d
			}
			v[j] = next
		}
		if maxDelta < tol {
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w after %d iterations", ErrNoConverge, maxIter)
}
