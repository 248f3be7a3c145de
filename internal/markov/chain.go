// Package markov implements finite discrete-time Markov chains with sparse
// transition structure: distribution evolution, absorbing-chain
// hitting-time and visit-count analysis, and trajectory sampling.
//
// The package is the analytical engine underneath the paper's multiphased
// download model (internal/core), which is a three-dimensional chain over
// (connections, pieces, potential-set size) states.
package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
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
// merges duplicate targets, and returns the immutable Chain. Rows with no
// entries are treated as absorbing (implicit self-loop with probability 1).
func (b *Builder) Build() (*Chain, error) {
	rows := make([][]Transition, b.n)
	for i, row := range b.rows {
		if len(row) == 0 {
			rows[i] = []Transition{{To: i, P: 1}}
			continue
		}
		merged := make(map[int]float64, len(row))
		for _, tr := range row {
			merged[tr.To] += tr.P
		}
		sum := 0.0
		out := make([]Transition, 0, len(merged))
		for to, p := range merged {
			sum += p
			out = append(out, Transition{To: to, P: p})
		}
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

// Sample walks the chain from state for at most maxSteps steps or until an
// absorbing state is entered, whichever comes first. It returns the visited
// state sequence including the initial state.
func (c *Chain) Sample(r *stats.RNG, state, maxSteps int) ([]int, error) {
	if state < 0 || state >= len(c.rows) {
		return nil, ErrBadState
	}
	path := make([]int, 1, maxSteps+1)
	path[0] = state
	for s := 0; s < maxSteps; s++ {
		if c.IsAbsorbing(state) {
			break
		}
		state = c.nextState(r, state)
		path = append(path, state)
	}
	return path, nil
}

func (c *Chain) nextState(r *stats.RNG, state int) int {
	u := r.Float64()
	acc := 0.0
	row := c.rows[state]
	for _, tr := range row {
		acc += tr.P
		if u < acc {
			return tr.To
		}
	}
	// Rounding slack: fall through to the last entry.
	return row[len(row)-1].To
}
