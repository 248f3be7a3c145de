package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig1aResult holds the Figure 1(a) series: the normalized potential-set
// size as a function of pieces downloaded, per neighbor-set size.
type Fig1aResult struct {
	Pieces int
	// SetSizes are the swept neighbor-set sizes (paper: 5, 10, 25, 40).
	SetSizes []int
	// Ratio[si][b] = E[i | b] / s for set size SetSizes[si].
	Ratio [][]float64
	// Phases[si] summarizes the bootstrap/last-phase exposure per set
	// size: small neighbor sets get stuck far more often, which is the
	// mechanism behind the Figure 1(a) dips.
	Phases []core.PhaseSummary
}

// Fig1a evaluates the model's potential-set evolution for the paper's
// neighbor-set sweep (Figure 1a): B = 200, k = 7, uniform ϕ.
func Fig1a(scale Scale) (*Fig1aResult, error) {
	logger.Debug("fig1a: start", "scale", scale.String())
	defer observeWalltime("fig1a", time.Now())
	b, runs := 200, 600
	if scale == Quick {
		b, runs = 60, 150
	}
	setSizes := []int{5, 10, 25, 40}
	// Each sweep point seeds its own RNG, so the points are independent
	// jobs; assembling the columns in index order reproduces the serial
	// result exactly.
	type column struct {
		ratio  []float64
		phases core.PhaseSummary
	}
	cols, err := par.Map(context.Background(), len(setSizes), 0, func(i int) (column, error) {
		s := setSizes[i]
		p := core.DefaultParams(s)
		p.B = b
		p.Phi = core.UniformPhi(b)
		m, err := core.NewModel(p)
		if err != nil {
			return column{}, fmt.Errorf("fig1a: %w", err)
		}
		es, err := m.Ensemble(stats.NewRNG(uint64(s), 0xF161A), runs)
		if err != nil {
			return column{}, fmt.Errorf("fig1a: %w", err)
		}
		return column{es.PotentialRatioCurve(s), es.Phases}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig1aResult{Pieces: b, SetSizes: setSizes}
	for _, c := range cols {
		out.Ratio = append(out.Ratio, c.ratio)
		out.Phases = append(out.Phases, c.phases)
	}
	return out, nil
}

// Table renders the series with at most maxRows sample points.
func (r *Fig1aResult) Table(maxRows int) *Table {
	t := &Table{
		Title:   "Figure 1(a): potential set size / neighbor set size vs pieces downloaded (model)",
		Columns: []string{"pieces"},
	}
	for _, s := range r.SetSizes {
		t.Columns = append(t.Columns, fmt.Sprintf("PSS=%d", s))
	}
	for _, b := range downsampleIdx(r.Pieces+1, maxRows) {
		row := []float64{float64(b)}
		for si := range r.SetSizes {
			row = append(row, r.Ratio[si][b])
		}
		t.AddRow(row...)
	}
	return t
}

// Fig1bResult holds the Figure 1(b) series: the download evolution
// timeline (time to reach b pieces), model versus simulation, for small
// and large neighbor sets.
type Fig1bResult struct {
	Pieces   int
	SetSizes []int
	// ModelTime[si][b] is the model's mean first passage to b pieces.
	ModelTime [][]float64
	// SimTime[si][b] is the simulator's mean first passage (in rounds).
	SimTime [][]float64
}

// Fig1b compares the model timeline against the swarm simulator for
// neighbor-set sizes 5 and 50 (Figure 1b).
func Fig1b(scale Scale) (*Fig1bResult, error) {
	logger.Debug("fig1b: start", "scale", scale.String())
	defer observeWalltime("fig1b", time.Now())
	runs := 400
	if scale == Quick {
		runs = 120
	}
	setSizes := []int{5, 50}
	params := make([]core.Params, len(setSizes))
	cfgs := make([]sim.Config, len(setSizes))
	for i, s := range setSizes {
		cfgs[i], params[i] = paperSwarm(s, scale)
		cfgs[i].Seed2 = 0x51B
	}
	// One job per set size: the simulator run, and in its reduce the
	// independently seeded model ensemble it is compared with.
	type column struct {
		model, sim []float64
	}
	cols, err := sweep("fig1b", cfgs, func(i int, res *sim.Result) (column, error) {
		m, err := core.NewModel(params[i])
		if err != nil {
			return column{}, err
		}
		es, err := m.Ensemble(stats.NewRNG(uint64(setSizes[i]), 0xF161B), runs)
		if err != nil {
			return column{}, err
		}
		return column{model: es.FirstPassage, sim: res.MeanFirstPassage(cfgs[i].Pieces)}, nil
	})
	if err != nil {
		return nil, err
	}
	// FirstPassage is indexed by piece count 0..B.
	out := &Fig1bResult{Pieces: len(cols[0].model) - 1, SetSizes: setSizes}
	for _, c := range cols {
		out.ModelTime = append(out.ModelTime, c.model)
		out.SimTime = append(out.SimTime, c.sim)
	}
	return out, nil
}

// paperSwarm is the §4 swarm at neighbor-set size s, the one Figure 1(b)
// and ValidateDistributions run: a flash crowd of 120 peers, λ = 2
// arrivals after it and one origin seed, with the chain it is compared
// against (DefaultParams(s) at B = Pieces, K = MaxConns, uniform ϕ).
// Callers set Seed2.
func paperSwarm(s int, scale Scale) (sim.Config, core.Params) {
	b, horizon := 200, 800.0
	if scale == Quick {
		b, horizon = 50, 300
	}
	p := core.DefaultParams(s)
	p.B = b
	p.Phi = core.UniformPhi(b)
	cfg := sim.DefaultConfig()
	cfg.Pieces = b
	cfg.MaxConns = p.K
	cfg.NeighborSet = s
	cfg.InitialPeers = 120
	cfg.ArrivalRate = 2
	cfg.SeedUpload = 6
	cfg.Horizon = horizon
	cfg.TrackPeers = 0
	cfg.Seed1 = uint64(s)
	return cfg, p
}

// Table renders the timeline comparison with at most maxRows points.
func (r *Fig1bResult) Table(maxRows int) *Table {
	t := &Table{
		Title:   "Figure 1(b): evolution timeline (time to reach b pieces), sim vs model",
		Columns: []string{"pieces"},
	}
	for _, s := range r.SetSizes {
		t.Columns = append(t.Columns,
			fmt.Sprintf("model,PSS=%d", s), fmt.Sprintf("sim,PSS=%d", s))
	}
	for _, b := range downsampleIdx(r.Pieces+1, maxRows) {
		row := []float64{float64(b)}
		for si := range r.SetSizes {
			row = append(row, r.ModelTime[si][b], r.SimTime[si][b])
		}
		t.AddRow(row...)
	}
	return t
}
