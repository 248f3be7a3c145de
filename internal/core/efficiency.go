package core

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// EfficiencyParams configures the Section 5 connection-migration model.
// The population is described by fractions x_0..x_K of peers holding i
// active connections; efficiency is η = (1/K) Σ i·x_i.
type EfficiencyParams struct {
	// K is the maximum number of simultaneous connections.
	K int
	// PR is the per-step probability that an established connection does
	// not fail (averaged over all peers).
	PR float64
}

// Validate reports whether the parameters are in-domain.
func (e EfficiencyParams) Validate() error {
	switch {
	case e.K < 1:
		return fmt.Errorf("%w: K = %d", ErrBadParams, e.K)
	case !isProb(e.PR):
		return fmt.Errorf("%w: PR = %g", ErrBadParams, e.PR)
	}
	return nil
}

// EfficiencyResult is the steady state of the migration model.
type EfficiencyResult struct {
	// X[i] is the equilibrium fraction of peers with i connections.
	X []float64
	// Eta is the efficiency η = (1/K) Σ i·X[i].
	Eta float64
	// Iterations is the number of balance-equation rounds to convergence.
	Iterations int
}

// SolveEfficiency iterates the system of balance equations (4)–(6) to its
// fixed point, starting from x_0 = 1.
//
// Each round applies, in the paper's stated order, (a) the downward
// (connection-failure) update of Equation (4) and (b) the upward
// (connection-establishment) sweep of Equations (5)–(6) with the acting
// class updated in increasing order — the ordering the paper notes makes
// the resulting η an upper bound on the simulated efficiency.
//
// Faithfulness note: Equations (5)–(6) as printed do not conserve
// probability mass — the acting peer leaves class i in Eq. (5) but its
// arrival in class i+1 appears in Eq. (6) only for the partner-class term,
// and class K receives no inflow at all ("the value of x_k remains the
// same"). We apply the minimal correction implied by the mechanism the
// paper describes ("the peer from class i moves to class i+1, and the peer
// from class l moves to class l+1"): every successful encounter moves its
// endpoints up one class, including into class K, and the per-round update
// is applied at class level (every open peer attempts one encounter per
// round rather than one peer per round). With that correction the sweep
// conserves Σx = 1 exactly and reproduces Figure 4(a).
func SolveEfficiency(e EfficiencyParams, tol float64, maxIter int) (EfficiencyResult, error) {
	return SolveEfficiencyCtx(context.Background(), e, tol, maxIter)
}

// SolveEfficiencyCtx is SolveEfficiency with cooperative cancellation:
// the context is polled before the first round and every ctxCheckSteps
// after it (p_r near 1 needs hundreds of thousands), and a cancelled or
// expired context aborts the solve with the context's error. The result
// is bit-identical to SolveEfficiency when the context never fires.
func SolveEfficiencyCtx(ctx context.Context, e EfficiencyParams, tol float64, maxIter int) (EfficiencyResult, error) {
	if err := e.Validate(); err != nil {
		return EfficiencyResult{}, err
	}
	if tol <= 0 {
		return EfficiencyResult{}, errors.New("core: tolerance must be positive")
	}
	k := e.K
	n := k + 1

	// One block holds the state vectors, the rows the table is built
	// from and the table itself. The floating-point operations of a
	// solve, and their order per output, are pinned bit for bit by
	// TestSolveEfficiencyMatchesReference; only the layout is free.
	buf := make([]float64, 7*n+k*n/2)
	x, down, y, lossP := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n]
	lg, qPow, pPow := buf[4*n:5*n], buf[5*n:6*n], buf[6*n:7*n]
	tab := buf[7*n:]
	x[0] = 1

	// w^l_f = C(l,f)(1-PR)^f PR^(l-f) is the probability that f of l
	// connections fail in one step. Row l of tab holds it by destination
	// class, row[i] = w^l_{l-i} for i < l, so Equation (4)'s inflow into
	// the classes below l is one pass over contiguous memory; lossP[l]
	// is the row's sum, the probability that class l loses a connection.
	for j := range lg {
		lg[j], _ = math.Lgamma(float64(j + 1)) // ln j!
		qPow[j] = math.Pow(1-e.PR, float64(j))
		pPow[j] = math.Pow(e.PR, float64(j))
	}
	for l, off := 1, 0; l <= k; l, off = l+1, off+l {
		row := tab[off : off+l]
		loss := 0.0
		for f := 1; f <= l; f++ {
			w := math.Exp(lg[l]-lg[f]-lg[l-f]) * qPow[f] * pPow[l-f]
			row[l-f] = w
			loss += w
		}
		lossP[l] = loss
	}

	// Damping keeps the flow-balance iteration from oscillating; the fixed
	// point itself is independent of the damping factor.
	const damping = 0.5

	for it := 1; it <= maxIter; it++ {
		if it%ctxCheckSteps == 1 {
			if err := ctx.Err(); err != nil {
				return EfficiencyResult{}, err
			}
		}
		// Downward flows, Equation (4), evaluated at the current x:
		// down[i] is the net change of x_i from connection failures.
		// Class i collects its inflow in the order l = i+1..k.
		for i, v := range x {
			down[i] = -v * lossP[i]
		}
		for l, off := 1, 0; l <= k; l, off = l+1, off+l {
			xl, d := x[l], down[:l]
			for i, w := range tab[off : off+l] {
				d[i] += w * xl
			}
		}

		// Upward flows, Equations (5)–(6): every peer with an open slot
		// attempts one encounter per round; an encounter succeeds iff the
		// partner also has an open slot (class < k), so the per-class
		// success probability is 1 − x_k. Classes are swept in the
		// paper's stated increasing order on a scratch copy, so mass
		// promoted out of class i can be promoted again out of class i+1
		// within the same round — the sequencing the paper notes makes
		// the resulting η an upper bound on the simulated efficiency.
		copy(y, x)
		for i := 0; i < k; i++ {
			if y[i] <= 0 {
				continue
			}
			succ := 1 - y[k] // recomputed each sub-step (sequential update)
			if succ <= 0 {
				continue
			}
			moved := y[i] * succ
			y[i] -= moved
			y[i+1] += moved
		}

		// Relaxed balance update: at the fixed point the per-round
		// failure and establishment flows cancel exactly, which is the
		// steady-state condition of the balance equations.
		delta := 0.0
		for i := range x {
			up := y[i] - x[i]
			d := damping * (down[i] + up)
			x[i] += d
			if x[i] < 0 {
				x[i] = 0
			}
			delta += math.Abs(d)
		}
		normalize(x)
		if delta < tol {
			return EfficiencyResult{X: snapshot(x), Eta: eta(x, k), Iterations: it}, nil
		}
	}
	return EfficiencyResult{}, fmt.Errorf("core: efficiency iteration did not converge in %d rounds", maxIter)
}

// normalize rescales x to sum to 1, compensating clamp-induced drift.
func normalize(x []float64) {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if sum <= 0 {
		return
	}
	for i := range x {
		x[i] /= sum
	}
}

func eta(x []float64, k int) float64 {
	sum := 0.0
	for i, v := range x {
		sum += float64(i) * v
	}
	return sum / float64(k)
}

func snapshot(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// CalibratedPR returns a connection-persistence probability for a given k,
// following the paper's explanation of Figure 4(a): with k = 1 a
// connection lives only as long as the initially exchangeable pieces, so
// persistence is low; with k >= 2 concurrently arriving pieces keep
// connections tradable, so persistence is high and grows slowly with k.
// The curve was calibrated against internal/sim measurements (see
// experiments.Fig4a and EXPERIMENTS.md).
func CalibratedPR(k int) float64 {
	if k <= 1 {
		return 0.45
	}
	return 0.98 + 0.012*(1-math.Exp(-float64(k-2)/2))
}
