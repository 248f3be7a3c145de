package fluid

import (
	"context"
	"fmt"
	"math"

	"repro/internal/stats"
)

// QSParams parameterizes the Qiu–Srikant fluid model of a BitTorrent-like
// network:
//
//	x'(t) = λ − θ·x(t) − min{ c·x(t), μ·(η·x(t) + y(t)) }
//	y'(t) = min{ c·x(t), μ·(η·x(t) + y(t)) } − γ·y(t)
//
// with x leechers, y seeds, λ the arrival rate, θ the leecher abort rate,
// c the per-peer download capacity (in files per unit time), μ the
// per-peer upload capacity, η the upload effectiveness of leechers, and γ
// the rate at which seeds leave.
type QSParams struct {
	Lambda float64
	Theta  float64
	C      float64
	Mu     float64
	Eta    float64
	Gamma  float64
}

// Validate reports whether the parameters are in-domain.
func (p QSParams) Validate() error {
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
		{"Gamma", p.Gamma, 1e-12},
	}
	for _, x := range vals {
		if x.v < x.min || math.IsNaN(x.v) || math.IsInf(x.v, 0) {
			return fmt.Errorf("fluid: %s = %g out of range", x.name, x.v)
		}
	}
	if p.Eta > 1 {
		return fmt.Errorf("fluid: Eta = %g > 1", p.Eta)
	}
	return nil
}

// Derivs returns the model's vector field over the state (x, y).
func (p QSParams) Derivs() Derivs {
	return func(_ float64, y, dydt []float64) {
		x, s := y[0], y[1]
		if x < 0 {
			x = 0
		}
		if s < 0 {
			s = 0
		}
		completion := math.Min(p.C*x, p.Mu*(p.Eta*x+s))
		dydt[0] = p.Lambda - p.Theta*x - completion
		dydt[1] = completion - p.Gamma*s
	}
}

// Trajectory is the fluid state over time.
type Trajectory struct {
	T        []float64
	Leechers []float64
	Seeds    []float64
}

// SteadyState holds the closed-form equilibrium (valid for θ = 0, which
// is the regime the paper's simulator also uses: nobody aborts).
type SteadyState struct {
	Leechers float64
	Seeds    float64
	// DownloadTime is the mean time in the leecher state by Little's law,
	// T = x̄ / λ = max{ 1/c, (1/η)(1/μ − 1/γ) }.
	DownloadTime float64
	// UploadConstrained reports which side of the max applies.
	UploadConstrained bool
}

// ClosedFormSteadyState returns the Qiu–Srikant equilibrium for θ = 0.
// It errs when θ > 0 (no simple closed form) or when the upload-
// constrained expression is non-positive (seeds alone can serve the
// load, making leechers vanish; the download-constrained branch applies).
func (p QSParams) ClosedFormSteadyState() (SteadyState, error) {
	if err := p.Validate(); err != nil {
		return SteadyState{}, err
	}
	if p.Theta != 0 {
		return SteadyState{}, fmt.Errorf("fluid: closed form requires Theta = 0, got %g", p.Theta)
	}
	if p.Eta <= 0 {
		return SteadyState{}, fmt.Errorf("fluid: closed form requires Eta > 0")
	}
	tDownload := 1 / p.C
	tUpload := (1 / p.Eta) * (1/p.Mu - 1/p.Gamma)
	t := math.Max(tDownload, tUpload)
	return SteadyState{
		Leechers:          p.Lambda * t,
		Seeds:             p.Lambda / p.Gamma,
		DownloadTime:      t,
		UploadConstrained: tUpload >= tDownload,
	}, nil
}

// MeanDownloadTime estimates T = x̄/λ from the tail of an integrated
// trajectory (Little's law), averaging the last 20% of samples (at least
// one) so the transient does not pollute the steady-state estimate.
//
// NaN contract: the estimate is NaN — never a panic, never a misleading
// number — when the trajectory is empty, when lambda is not a positive
// finite rate, or when the averaged samples themselves are NaN. Callers
// that serve the value must check math.IsNaN before formatting.
func (tr *Trajectory) MeanDownloadTime(lambda float64) float64 {
	n := len(tr.Leechers)
	if n == 0 || lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return math.NaN()
	}
	win := n / 5
	if win < 1 {
		win = 1
	}
	tail := tr.Leechers[n-win:]
	return stats.Mean(tail) / lambda
}

// SolveAdaptive integrates the model with the adaptive Dormand–Prince
// solver, sampling the dense output on grid (non-decreasing, within
// [0, horizon]). It returns the sampled trajectory alongside the raw
// Solution for its step counters.
func (p QSParams) SolveAdaptive(ctx context.Context, x0, y0, horizon float64, grid []float64, opts SolveOpts) (*Trajectory, *Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if x0 < 0 || y0 < 0 || math.IsNaN(x0) || math.IsNaN(y0) {
		return nil, nil, fmt.Errorf("fluid: initial state (%g, %g)", x0, y0)
	}
	sol, err := Solve(ctx, p.Derivs(), []float64{x0, y0}, 0, horizon, grid, opts)
	if err != nil {
		return nil, nil, err
	}
	out := &Trajectory{T: sol.T}
	for _, y := range sol.Y {
		out.Leechers = append(out.Leechers, y[0])
		out.Seeds = append(out.Seeds, y[1])
	}
	return out, sol, nil
}
