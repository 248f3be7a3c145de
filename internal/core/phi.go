package core

import (
	"fmt"
	"math"
)

// PieceDist is the distribution ϕ of piece counts across peers in the
// swarm: At(j) is the fraction of peers holding exactly j pieces. The
// support is 1..MaxPieces(); the values must sum to 1.
type PieceDist interface {
	// At returns ϕ(j). Values outside 1..MaxPieces() return 0.
	At(j int) float64
	// MaxPieces returns B, the upper end of the support.
	MaxPieces() int
}

// tableDist backs every concrete distribution with a dense table indexed
// by piece count (index 0 unused).
type tableDist struct {
	p []float64 // p[j] = ϕ(j), len B+1
}

func (d tableDist) At(j int) float64 {
	if j < 1 || j >= len(d.p) {
		return 0
	}
	return d.p[j]
}

func (d tableDist) MaxPieces() int { return len(d.p) - 1 }

// UniformPhi returns the uniform distribution ϕ(j) = 1/B for j = 1..B.
// The paper's Section 6 identifies this as the distribution the trading
// phase drives the system towards when it is stable.
// It is a closed form, not a table: At(j) computes 1/B, the value each
// entry of a table would hold, so building Params allocates no B+1
// floats.
func UniformPhi(b int) PieceDist { return uniformDist(b) }

// uniformDist is UniformPhi's ϕ over 1..B, B = the value itself.
type uniformDist int

func (d uniformDist) At(j int) float64 {
	if j < 1 || j > int(d) {
		return 0
	}
	return 1 / float64(d)
}

func (d uniformDist) MaxPieces() int { return int(d) }

// GeometricPhi returns a skewed distribution in which the fraction of
// peers holding j pieces decays geometrically with ratio r in (0, 1):
// most peers hold few pieces. Used to model young or unstable swarms.
func GeometricPhi(b int, r float64) (PieceDist, error) {
	if r <= 0 || r >= 1 {
		return nil, fmt.Errorf("%w: geometric ratio %g not in (0,1)", ErrBadParams, r)
	}
	p := make([]float64, b+1)
	sum := 0.0
	w := 1.0
	for j := 1; j <= b; j++ {
		p[j] = w
		sum += w
		w *= r
	}
	for j := 1; j <= b; j++ {
		p[j] /= sum
	}
	return tableDist{p: p}, nil
}

// EmpiricalPhi builds ϕ from observed piece counts (e.g., a simulator or
// tracker snapshot). counts[j] is the number of peers holding exactly j
// pieces for j = 1..len(counts)-1; counts[0] is ignored because the model
// conditions on peers that hold at least one piece.
func EmpiricalPhi(counts []int) (PieceDist, error) {
	if len(counts) < 2 {
		return nil, fmt.Errorf("%w: empirical phi needs counts for at least 1 piece", ErrBadParams)
	}
	total := 0
	for j := 1; j < len(counts); j++ {
		if counts[j] < 0 {
			return nil, fmt.Errorf("%w: negative count at %d", ErrBadParams, j)
		}
		total += counts[j]
	}
	if total == 0 {
		return nil, fmt.Errorf("%w: empirical phi has no mass", ErrBadParams)
	}
	p := make([]float64, len(counts))
	for j := 1; j < len(counts); j++ {
		p[j] = float64(counts[j]) / float64(total)
	}
	return tableDist{p: p}, nil
}

// PhiEntropy returns the normalized Shannon entropy of a piece
// distribution in [0, 1]; 1 means uniform. This is a convenience for
// characterizing how far a swarm snapshot is from the stable regime.
func PhiEntropy(d PieceDist) float64 {
	b := d.MaxPieces()
	if b <= 1 {
		return 1
	}
	h := 0.0
	for j := 1; j <= b; j++ {
		p := d.At(j)
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h / math.Log(float64(b))
}
