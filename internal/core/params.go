// Package core implements the paper's primary contribution: the multiphased
// model of a BitTorrent peer's download evolution (Rai et al., ICDCS 2007).
//
// The download process of a single peer is a three-dimensional Markov chain
// over states (n, b, i): the number of active connections, the number of
// downloaded pieces, and the size of the potential set. The transition
// kernel factors as
//
//	Pr{(n,b,i) -> (n',b',i')} = f(b'|n,b) · g(i'|n,b,i) · h(n'|n,b,i')
//
// (Section 3.1 of the paper). The package provides the transition functions,
// exact chain construction for small state spaces, Monte-Carlo trajectory
// sampling for paper-scale configurations (B=200, s=50), the Section 5
// efficiency model over connection-count classes, and the Section 6
// entropy-based stability analysis.
package core

import (
	"errors"
	"fmt"
)

// Errors reported by model construction.
var (
	ErrBadParams = errors.New("core: invalid model parameters")
)

// Params holds the parameters of the multiphased download model, using the
// paper's notation.
type Params struct {
	// B is the number of pieces the file is divided into.
	B int
	// K is the maximum number of simultaneous active connections.
	K int
	// S is the maximum achievable size of the neighbor set.
	S int
	// PInit is the probability that an initial connection attempt to a
	// neighbor succeeds (bootstrap, b+n = 0).
	PInit float64
	// Alpha is the probability, per step, that a peer stuck in the
	// bootstrap phase (b+n = 1, i = 0) sees a peer with exchangeable
	// pieces enter its neighbor set. The paper gives α = λws/N.
	Alpha float64
	// Gamma is the probability, per step, that a peer stuck in the last
	// download phase (b+n > 1, i = 0) sees new pieces flow into its
	// neighbor set.
	Gamma float64
	// PR is the probability that an established encounter does not fail
	// between steps (re-encounter probability).
	PR float64
	// PN is the probability that an attempted new connection is
	// established.
	PN float64
	// Phi is the piece-count distribution over peers: Phi(j) is the
	// fraction of peers in the swarm holding exactly j pieces, j = 1..B.
	Phi PieceDist
	// Seeds adds the Section 7.2 seed connections, which deliver pieces
	// without tit-for-tat. The zero value is the paper's chain.
	Seeds SeedParams
}

// Validate reports whether the parameters are in-domain.
func (p Params) Validate() error {
	switch {
	case p.B < 1:
		return fmt.Errorf("%w: B = %d, need >= 1", ErrBadParams, p.B)
	case p.K < 1:
		return fmt.Errorf("%w: K = %d, need >= 1", ErrBadParams, p.K)
	case p.S < 1:
		return fmt.Errorf("%w: S = %d, need >= 1", ErrBadParams, p.S)
	case !isProb(p.PInit):
		return fmt.Errorf("%w: PInit = %g", ErrBadParams, p.PInit)
	case !isProb(p.Alpha):
		return fmt.Errorf("%w: Alpha = %g", ErrBadParams, p.Alpha)
	case !isProb(p.Gamma):
		return fmt.Errorf("%w: Gamma = %g", ErrBadParams, p.Gamma)
	case !isProb(p.PR):
		return fmt.Errorf("%w: PR = %g", ErrBadParams, p.PR)
	case !isProb(p.PN):
		return fmt.Errorf("%w: PN = %g", ErrBadParams, p.PN)
	case p.Phi == nil:
		return fmt.Errorf("%w: Phi is nil", ErrBadParams)
	case p.Phi.MaxPieces() != p.B:
		return fmt.Errorf("%w: Phi supports B = %d, params have B = %d",
			ErrBadParams, p.Phi.MaxPieces(), p.B)
	}
	return p.Seeds.Validate()
}

func isProb(p float64) bool { return p >= 0 && p <= 1 }

// AlphaFromSwarm computes the bootstrap escape probability α = λ·w·s / N
// (Section 3.2): λ is the peer arrival rate per step, w the probability
// that a newly arriving peer has a piece to exchange, s the neighbor-set
// size, and N the swarm size. The result is clamped to [0, 1].
func AlphaFromSwarm(lambda, w float64, s, n int) float64 {
	if n <= 0 {
		return 1
	}
	a := lambda * w * float64(s) / float64(n)
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// DefaultParams returns the configuration used throughout the paper's
// validation plots: a 200-piece file, k = 7 connections, and a neighbor
// set of s peers with a uniform piece distribution.
func DefaultParams(s int) Params {
	const b = 200
	return Params{
		B:     b,
		K:     7,
		S:     s,
		PInit: 0.5,
		Alpha: 0.1,
		Gamma: 0.1,
		PR:    0.9,
		PN:    0.8,
		Phi:   UniformPhi(b),
	}
}
