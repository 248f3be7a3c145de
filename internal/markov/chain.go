// Package markov implements finite discrete-time Markov chains with sparse
// transition structure: distribution evolution and absorbing-chain
// hitting-time and visit-count analysis. Building a chain is
// deterministic, so every result is bit-reproducible.
//
// The package is the analytical engine underneath the paper's multiphased
// download model (internal/core), whose exact chain runs over
// (connections, pieces, potential-set size, booted) states.
package markov

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Errors returned by chain construction and analysis.
var (
	ErrNotStochastic = errors.New("markov: transition row does not sum to 1")
	ErrBadState      = errors.New("markov: state index out of range")
	ErrNoConverge    = errors.New("markov: iteration did not converge")
)

// rowTolerance is the slack allowed when validating that a row sums to 1.
const rowTolerance = 1e-9

// Transition is one sparse entry of a transition row.
type Transition struct {
	To int
	P  float64
}

// Chain is a finite discrete-time Markov chain over states 0..N-1 with
// sparse rows. A Chain is immutable after Build and safe for concurrent use.
type Chain struct {
	rows [][]Transition
}

// Builder accumulates transition entries before validation. A Builder is
// not safe for concurrent use.
type Builder struct {
	n    int
	rows [][]Transition
}

// NewBuilder returns a Builder for a chain with n states.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, rows: make([][]Transition, n)}
}

// Add records Pr(from → to) += p. Entries with p == 0 are dropped.
func (b *Builder) Add(from, to int, p float64) error {
	if from < 0 || from >= b.n || to < 0 || to >= b.n {
		return fmt.Errorf("%w: %d -> %d (n=%d)", ErrBadState, from, to, b.n)
	}
	if p < 0 || math.IsNaN(p) {
		return fmt.Errorf("markov: negative or NaN probability %g on %d -> %d", p, from, to)
	}
	if p == 0 {
		return nil
	}
	b.rows[from] = append(b.rows[from], Transition{To: to, P: p})
	return nil
}

// Build validates that every row is stochastic (sums to 1 within tolerance),
// merges duplicate targets in (target, probability) order, so a row does
// not depend on the order its entries were added in, and returns the
// immutable Chain. Rows with no entries are treated as absorbing (implicit
// self-loop with probability 1).
func (b *Builder) Build() (*Chain, error) {
	rows := make([][]Transition, b.n)
	for i, row := range b.rows {
		if len(row) == 0 {
			rows[i] = []Transition{{To: i, P: 1}}
			continue
		}
		out := slices.Clone(row)
		slices.SortFunc(out, func(x, y Transition) int {
			return cmp.Or(cmp.Compare(x.To, y.To), cmp.Compare(x.P, y.P))
		})
		n, sum := 0, 0.0
		for _, tr := range out {
			sum += tr.P
			if n > 0 && out[n-1].To == tr.To {
				out[n-1].P += tr.P
			} else {
				out[n] = tr
				n++
			}
		}
		out = out[:n]
		if math.Abs(sum-1) > rowTolerance {
			return nil, fmt.Errorf("%w: row %d sums to %.12g", ErrNotStochastic, i, sum)
		}
		// Renormalize exactly to kill accumulated rounding.
		for j := range out {
			out[j].P /= sum
		}
		rows[i] = out
	}
	return &Chain{rows: rows}, nil
}

// IsAbsorbing reports whether state i transitions only to itself.
func (c *Chain) IsAbsorbing(i int) bool {
	return len(c.rows[i]) == 1 && c.rows[i][0].To == i
}

// Step advances a distribution one step: out = dist · P. The input must
// have length N; the output is freshly allocated.
func (c *Chain) Step(dist []float64) []float64 {
	out := make([]float64, len(c.rows))
	for i, p := range dist {
		if p == 0 {
			continue
		}
		for _, tr := range c.rows[i] {
			out[tr.To] += p * tr.P
		}
	}
	return out
}

// Evolve advances the distribution steps times, invoking observe (if
// non-nil) after every step with the step index (1-based) and the current
// distribution. The distribution passed to observe must not be retained.
func (c *Chain) Evolve(dist []float64, steps int, observe func(step int, dist []float64)) []float64 {
	cur := make([]float64, len(dist))
	copy(cur, dist)
	for s := 1; s <= steps; s++ {
		cur = c.Step(cur)
		if observe != nil {
			observe(s, cur)
		}
	}
	return cur
}

// AbsorptionTime returns, for every transient state, the expected number of
// steps until the chain first enters any absorbing state, computed by
// Gauss–Seidel iteration on t = 1 + Q·t. Absorbing states report 0.
func (c *Chain) AbsorptionTime(tol float64, maxIter int) ([]float64, error) {
	n := len(c.rows)
	t := make([]float64, n)
	absorbing := make([]bool, n)
	anyAbsorbing := false
	for i := range c.rows {
		absorbing[i] = c.IsAbsorbing(i)
		anyAbsorbing = anyAbsorbing || absorbing[i]
	}
	if !anyAbsorbing {
		return nil, errors.New("markov: chain has no absorbing state")
	}
	for it := 0; it < maxIter; it++ {
		maxDelta := 0.0
		for i := range c.rows {
			if absorbing[i] {
				continue
			}
			sum := 1.0
			selfP := 0.0
			for _, tr := range c.rows[i] {
				if tr.To == i {
					selfP = tr.P
					continue
				}
				sum += tr.P * t[tr.To]
			}
			if selfP >= 1 {
				return nil, fmt.Errorf("markov: state %d is a non-absorbing trap", i)
			}
			next := sum / (1 - selfP)
			if d := math.Abs(next - t[i]); d > maxDelta {
				maxDelta = d
			}
			t[i] = next
		}
		if maxDelta < tol {
			return t, nil
		}
	}
	return nil, fmt.Errorf("%w after %d iterations", ErrNoConverge, maxIter)
}
