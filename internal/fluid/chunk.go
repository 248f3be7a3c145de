package fluid

import (
	"context"
	"fmt"
	"math"

	"repro/internal/stats"
)

// ChunkParams parameterizes the chunk-level epidemiological fluid model:
// the deterministic large-population limit of a BitTorrent-like swarm in
// the style of Kesidis et al., but resolved per piece count. Where the
// Qiu–Srikant model tracks one leecher aggregate x(t), this model tracks
// the population vector N_0..N_{K-1} of leechers holding exactly j of
// the K pieces, plus the seed population y — which is exactly the
// protocol detail the paper says aggregate fluid models hide: the piece
// count K and the effectiveness of a finite neighbor set both appear in
// the dynamics.
//
// Mechanics (state N_0..N_{K-1}, y; X = Σ N_j; P = X + y):
//
//   - A class-j leecher finds a uniformly random contact useful when the
//     contact holds at least one of the K−j pieces the leecher lacks.
//     Under exchangeable piece sets that probability is
//     use(j, m) = 1 − C(j, m)/C(K, m) for a class-m contact (0 for an
//     empty peer, 1 for a seed), precomputed once as a (K+1)² table.
//   - With S neighbors the per-round chance of at least one useful
//     contact is e_j = 1 − (1 − u_j)^S where
//     u_j = (η·Σ_m use(j, m)·N_m + y) / P — the neighbor-set
//     amplification a one-population model cannot express.
//   - Demand is capped by the download link: D = C·K·Σ_j N_j·e_j
//     pieces per unit time. Supply is capped by upload links weighted by
//     what uploaders actually hold: S_up = μ·K·η·Σ_m a_m·N_m + σ·y with
//     a_m = Σ_j use(j, m)·N_j / X the demand-averaged availability of
//     class m, and σ the per-seed upload rate in pieces per unit time.
//     An empty swarm therefore bootstraps at exactly σ·y — the seed-fed
//     ramp the aggregate model's μ·(η·x + y) term gets wrong.
//   - The realized transfer rate T = min(D, S_up) distributes over
//     classes proportionally to the useful demand w_j = N_j·e_j, giving
//     the class flows F_j = T·w_j/W that advance peers j → j+1.
//
// The ODE system is then
//
//	N_0' = λ − θ·N_0 − F_0
//	N_j' = F_{j−1} − F_j − θ·N_j            (0 < j < K)
//	y'   = ν·F_{K−1} − γ·y
//
// with λ arrivals, θ the abort rate, ν = SeedFraction the share of
// completing leechers that stay to seed, and γ the seed departure rate.
type ChunkParams struct {
	// K is the piece count (the model's resolution).
	K int
	// S is the neighbor-set size; 1 means a single random contact.
	S int
	// Lambda is the arrival rate of empty leechers.
	Lambda float64
	// Theta is the per-leecher abort rate.
	Theta float64
	// C is the per-peer download capacity in files per unit time.
	C float64
	// Mu is the per-leecher upload capacity in files per unit time.
	Mu float64
	// Eta is the upload effectiveness of leechers in [0, 1].
	Eta float64
	// Gamma is the rate at which seeds leave; 0 keeps seeds forever
	// (origin seeds that never depart).
	Gamma float64
	// SeedUpload is σ, the per-seed upload rate in pieces per unit time.
	// Zero defaults to Mu·K (a seed uploads at the leecher file rate).
	SeedUpload float64
	// SeedFraction is ν, the share of completing leechers that remain as
	// seeds (1 = all of them, the Qiu–Srikant behavior; 0 = completions
	// leave the system immediately, the paper simulator's default).
	SeedFraction float64
}

// Validate reports whether the parameters are in-domain.
func (p ChunkParams) Validate() error {
	if p.K < 1 || p.K > 4096 {
		return fmt.Errorf("fluid: chunk K = %d outside [1, 4096]", p.K)
	}
	if p.S < 1 || p.S > 1<<20 {
		return fmt.Errorf("fluid: chunk S = %d outside [1, 2^20]", p.S)
	}
	vals := []struct {
		name string
		v    float64
		min  float64
	}{
		{"Lambda", p.Lambda, 0},
		{"Theta", p.Theta, 0},
		{"C", p.C, 1e-12},
		{"Mu", p.Mu, 1e-12},
		{"Eta", p.Eta, 0},
		{"Gamma", p.Gamma, 0},
		{"SeedUpload", p.SeedUpload, 0},
	}
	for _, x := range vals {
		if x.v < x.min || math.IsNaN(x.v) || math.IsInf(x.v, 0) {
			return fmt.Errorf("fluid: chunk %s = %g out of range", x.name, x.v)
		}
	}
	if p.Eta > 1 {
		return fmt.Errorf("fluid: chunk Eta = %g > 1", p.Eta)
	}
	if p.SeedFraction < 0 || p.SeedFraction > 1 || math.IsNaN(p.SeedFraction) {
		return fmt.Errorf("fluid: chunk SeedFraction = %g outside [0, 1]", p.SeedFraction)
	}
	return nil
}

// ChunkModel is a validated chunk-level model with its use(j, m) table
// precomputed. Build with NewChunkModel; the model is immutable and safe
// for concurrent solves.
type ChunkModel struct {
	p ChunkParams
	// use[j*(K+1)+m] = P(class-m contact holds a piece a class-j leecher
	// lacks) = 1 − C(j, m)/C(K, m).
	use   []float64
	sigma float64
}

// NewChunkModel validates p and precomputes the usefulness table.
func NewChunkModel(p ChunkParams) (*ChunkModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sigma := p.SeedUpload
	if sigma == 0 {
		sigma = p.Mu * float64(p.K)
	}
	k := p.K
	use := make([]float64, (k+1)*(k+1))
	for j := 0; j <= k; j++ {
		for m := 0; m <= k; m++ {
			switch {
			case j >= k || m == 0:
				use[j*(k+1)+m] = 0 // nothing left to want, or empty contact
			case m > j:
				use[j*(k+1)+m] = 1 // pigeonhole: must hold something new
			default:
				// 1 − C(j,m)/C(K,m) via the log-binomial (stable for K up
				// to the 4096 cap).
				r := math.Exp(stats.LogChoose(j, m) - stats.LogChoose(k, m))
				if r > 1 {
					r = 1
				}
				use[j*(k+1)+m] = 1 - r
			}
		}
	}
	return &ChunkModel{p: p, use: use, sigma: sigma}, nil
}

// Dim returns the state dimension: K leecher classes plus the seed
// population (state layout: y[j] = N_j for j < K, y[K] = seeds).
func (m *ChunkModel) Dim() int { return m.p.K + 1 }

// InitialState builds the state vector for x0 empty leechers and y0
// seeds.
func (m *ChunkModel) InitialState(x0, y0 float64) []float64 {
	st := make([]float64, m.Dim())
	st[0] = x0
	st[m.p.K] = y0
	return st
}

// Leechers sums the leecher classes of a state vector.
func (m *ChunkModel) Leechers(y []float64) float64 {
	x := 0.0
	for j := 0; j < m.p.K; j++ {
		if y[j] > 0 {
			x += y[j]
		}
	}
	return x
}

// Derivs returns the model's vector field. The returned closure reuses
// two internal scratch slices, so it must not be shared across
// concurrent solves; call Derivs once per Solve.
func (m *ChunkModel) Derivs() Derivs {
	k := m.p.K
	p := m.p
	sigma := m.sigma
	w := make([]float64, k)    // useful demand per class
	flow := make([]float64, k) // F_j
	return func(_ float64, st, d []float64) {
		// Clamp the working copy at zero: transient small negatives from
		// the integrator must not flip flow signs.
		x := 0.0
		for j := 0; j < k; j++ {
			if st[j] > 0 {
				x += st[j]
			}
		}
		seeds := st[k]
		if seeds < 0 {
			seeds = 0
		}
		pop := x + seeds
		W := 0.0
		demand := 0.0
		supply := sigma * seeds
		if pop > 1e-12 {
			// availAcc accumulates Σ_j use(j, m)·N_j per m for the supply
			// side; useAcc is Σ_m use(j, m)·N_m for the demand side.
			for j := 0; j < k; j++ {
				nj := st[j]
				if nj < 0 {
					nj = 0
				}
				if nj == 0 {
					w[j] = 0
					continue
				}
				useAcc := 0.0
				row := m.use[j*(k+1):]
				for mm := 1; mm < k; mm++ {
					nm := st[mm]
					if nm > 0 {
						useAcc += row[mm] * nm
					}
				}
				uj := (p.Eta*useAcc + seeds) / pop
				if uj > 1 {
					uj = 1
				}
				ej := 1 - powi(1-uj, p.S)
				w[j] = nj * ej
				W += w[j]
				demand += nj * ej
			}
			demand *= p.C * float64(k)
			// Supply: uploads weighted by what uploaders hold. a_m·N_m
			// aggregated demand-side: Σ_m N_m · (Σ_j use(j,m)·N_j / X).
			if x > 1e-12 {
				avail := 0.0
				for mm := 1; mm < k; mm++ {
					nm := st[mm]
					if nm <= 0 {
						continue
					}
					acc := 0.0
					for j := 0; j < k; j++ {
						nj := st[j]
						if nj > 0 {
							acc += m.use[j*(k+1)+mm] * nj
						}
					}
					avail += nm * acc / x
				}
				supply += p.Mu * float64(k) * p.Eta * avail
			}
		}
		total := math.Min(demand, supply)
		if total < 0 || W <= 0 {
			total = 0
		}
		for j := 0; j < k; j++ {
			if W > 0 {
				flow[j] = total * w[j] / W
			} else {
				flow[j] = 0
			}
		}
		for j := 0; j < k; j++ {
			nj := st[j]
			if nj < 0 {
				nj = 0
			}
			d[j] = -flow[j] - p.Theta*nj
			if j == 0 {
				d[j] += p.Lambda
			} else {
				d[j] += flow[j-1]
			}
		}
		d[k] = p.SeedFraction*flow[k-1] - p.Gamma*seeds
	}
}

// powi computes b^n for n ≥ 1 by squaring — the hot call of the
// derivative evaluation (once per class per f-eval), much cheaper than
// math.Pow and exactly reproducible: a fixed multiplication sequence per
// exponent.
func powi(b float64, n int) float64 {
	r := 1.0
	for n > 0 {
		if n&1 == 1 {
			r *= b
		}
		b *= b
		n >>= 1
	}
	return r
}

// ChunkTrajectory is the solved chunk model over a sample grid.
type ChunkTrajectory struct {
	T        []float64
	Leechers []float64 // Σ_j N_j at each grid time
	Seeds    []float64
	// Final is the full class vector at the horizon (N_0..N_{K-1}, y).
	Final []float64
	// Steps, Rejected, FEvals are the solver's counters.
	Steps, Rejected, FEvals int
}

// Solve integrates the model from x0 empty leechers and y0 seeds over
// [0, horizon], sampling the dense output on grid (which must be
// non-decreasing within [0, horizon]).
func (m *ChunkModel) Solve(ctx context.Context, x0, y0, horizon float64, grid []float64, opts SolveOpts) (*ChunkTrajectory, error) {
	if x0 < 0 || y0 < 0 || math.IsNaN(x0) || math.IsNaN(y0) {
		return nil, fmt.Errorf("fluid: chunk initial state (%g, %g)", x0, y0)
	}
	sol, err := Solve(ctx, m.Derivs(), m.InitialState(x0, y0), 0, horizon, grid, opts)
	if err != nil {
		return nil, err
	}
	tr := &ChunkTrajectory{
		T:        sol.T,
		Final:    sol.Final,
		Steps:    sol.Steps,
		Rejected: sol.Rejected,
		FEvals:   sol.FEvals,
	}
	for _, y := range sol.Y {
		tr.Leechers = append(tr.Leechers, m.Leechers(y))
		s := y[m.p.K]
		if s < 0 {
			s = 0
		}
		tr.Seeds = append(tr.Seeds, s)
	}
	return tr, nil
}

// Residual evaluates the vector field at st and returns the largest
// absolute component — the steady-state residual ‖f(x)‖∞. At a true
// equilibrium it is zero; tests use it as the closed-form flow-balance
// check (λ = θ·ΣN + (1−ν)·F_{K−1} + γ·y in balance).
func (m *ChunkModel) Residual(st []float64) float64 {
	d := make([]float64, len(st))
	m.Derivs()(0, st, d)
	r := 0.0
	for _, v := range d {
		if a := math.Abs(v); a > r {
			r = a
		}
	}
	return r
}
