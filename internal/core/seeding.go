package core

import (
	"fmt"

	"repro/internal/stats"
)

// SeedParams extends the download model with seed connections, following
// the paper's Section 7.2 sketch: "we can incorporate the effects of
// seeds by modeling extra connections, which do not require the strict
// tit-for-tat policy". Seed connections deliver pieces unconditionally —
// in particular during the bootstrap and last-phase waits, which is why
// downloading from seeds trivially solves the last-piece problem (§7.1).
type SeedParams struct {
	// Conns is the number of connections to seeds the peer holds.
	Conns int
	// PServe is the per-step probability that one seed connection
	// delivers a piece (seeds divide their upload capacity over many
	// downloaders, so PServe is typically well below 1).
	PServe float64
}

// Validate reports whether the parameters are in-domain.
func (sp SeedParams) Validate() error {
	if sp.Conns < 0 {
		return fmt.Errorf("%w: seed Conns = %d", ErrBadParams, sp.Conns)
	}
	if !isProb(sp.PServe) {
		return fmt.Errorf("%w: seed PServe = %g", ErrBadParams, sp.PServe)
	}
	return nil
}

// SeededModel is the multiphased model plus non-tit-for-tat seed
// connections.
type SeededModel struct {
	base *Model
	sp   SeedParams
	// serveDist is the distribution of pieces delivered by seeds per step.
	serveDist cdf
}

// NewSeededModel validates and builds the extended model.
func NewSeededModel(p Params, sp SeedParams) (*SeededModel, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	base, err := NewModel(p)
	if err != nil {
		return nil, err
	}
	return &SeededModel{
		base:      base,
		sp:        sp,
		serveDist: runningSum(stats.Binomial{N: sp.Conns, P: sp.PServe}.PMFTable()),
	}, nil
}

// Step advances one transition: the tit-for-tat dynamics of the base
// model plus Binomial(Conns, PServe) free pieces from seeds.
func (m *SeededModel) Step(r *stats.RNG, s State) State {
	next := m.base.Step(r, s)
	if m.sp.Conns == 0 || m.sp.PServe == 0 {
		// No RNG draw: with zero seed capacity the extended model is
		// stream-for-stream identical to the base model.
		return next
	}
	if free := m.serveDist.index(r.Float64()); free > 0 {
		next.B += free
		if next.B > m.base.p.B {
			next.B = m.base.p.B
		}
	}
	return next
}

// SampleTrajectory draws one download realization with seed assistance.
func (m *SeededModel) SampleTrajectory(r *stats.RNG) Trajectory {
	s := State{}
	traj := make(Trajectory, 1, m.base.p.B+16)
	traj[0] = s
	for step := 0; step < MaxTrajectorySteps; step++ {
		if s.B == m.base.p.B {
			break
		}
		s = m.Step(r, s)
		traj = append(traj, s)
	}
	return traj
}

// MeanDownloadSteps estimates the expected completion time over runs
// trajectories.
func (m *SeededModel) MeanDownloadSteps(r *stats.RNG, runs int) (float64, error) {
	if runs < 1 {
		return 0, fmt.Errorf("%w: runs = %d", ErrBadParams, runs)
	}
	var acc stats.Accumulator
	for i := 0; i < runs; i++ {
		traj := m.SampleTrajectory(r.Split())
		steps := traj.DownloadSteps(m.base.p.B)
		if steps < 0 {
			return 0, fmt.Errorf("core: seeded trajectory did not complete")
		}
		acc.Add(float64(steps))
	}
	return acc.Mean(), nil
}

// SeedSpeedup estimates the ratio of unseeded to seeded mean download
// time for the given configuration — the headline effect of Section 7.2.
func SeedSpeedup(p Params, sp SeedParams, r *stats.RNG, runs int) (float64, error) {
	seeded, err := NewSeededModel(p, sp)
	if err != nil {
		return 0, err
	}
	withSeeds, err := seeded.MeanDownloadSteps(r.Split(), runs)
	if err != nil {
		return 0, err
	}
	bare, err := NewSeededModel(p, SeedParams{})
	if err != nil {
		return 0, err
	}
	without, err := bare.MeanDownloadSteps(r.Split(), runs)
	if err != nil {
		return 0, err
	}
	return without / withSeeds, nil
}
