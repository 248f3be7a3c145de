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

// ValidationResult compares the model's and the simulator's download-time
// *distributions* (not just means) per neighbor-set size, using the
// two-sample Kolmogorov–Smirnov statistic. This strengthens the paper's
// Figure 1(b) mean-timeline validation to distribution level.
type ValidationResult struct {
	SetSizes []int
	// ModelMean and SimMean are the mean completion times (rounds).
	ModelMean []float64
	SimMean   []float64
	// KS is the two-sample KS distance between the model's and the
	// simulator's completion-time samples.
	KS []float64
	// SelfKS is the KS distance between two independent model ensembles
	// — the Monte-Carlo noise floor the cross-comparison is judged
	// against.
	SelfKS []float64
	// SampleSizes records (model, sim) sample counts per set size.
	SampleSizes [][2]int
}

// ValidateDistributions runs the model and the simulator on matched
// configurations and reports the KS comparison.
func ValidateDistributions(scale Scale) (*ValidationResult, error) {
	logger.Debug("validate distributions: start", "scale", scale.String())
	defer observeWalltime("validate", time.Now())
	b, runs, horizon := 200, 400, 800.0
	if scale == Quick {
		b, runs, horizon = 50, 150, 300
	}
	setSizes := []int{5, 50}
	type row struct {
		modelMean, simMean, ks, selfKS float64
		samples                        [2]int
	}
	rows, err := par.Map(context.Background(), len(setSizes), 0, func(i int) (row, error) {
		s := setSizes[i]
		p := core.DefaultParams(s)
		p.B = b
		p.Phi = core.UniformPhi(b)
		m, err := core.NewModel(p)
		if err != nil {
			return row{}, fmt.Errorf("validate: %w", err)
		}
		esA, err := m.Ensemble(stats.NewRNG(uint64(s), 0x7A11), runs)
		if err != nil {
			return row{}, fmt.Errorf("validate: %w", err)
		}
		esB, err := m.Ensemble(stats.NewRNG(uint64(s), 0x7A12), runs)
		if err != nil {
			return row{}, fmt.Errorf("validate: %w", err)
		}

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
		cfg.Seed2 = 0x7A13
		sw, err := sim.New(cfg)
		if err != nil {
			return row{}, fmt.Errorf("validate: %w", err)
		}
		res, err := sw.Run()
		if err != nil {
			return row{}, fmt.Errorf("validate: %w", err)
		}
		simTimes := make([]float64, 0, len(res.Completions))
		for _, c := range res.Completions {
			simTimes = append(simTimes, c.Duration())
		}
		return row{
			modelMean: stats.Mean(esA.CompletionTimes),
			simMean:   stats.Mean(simTimes),
			ks:        stats.KolmogorovSmirnov(esA.CompletionTimes, simTimes),
			selfKS:    stats.KolmogorovSmirnov(esA.CompletionTimes, esB.CompletionTimes),
			samples:   [2]int{len(esA.CompletionTimes), len(simTimes)},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &ValidationResult{SetSizes: setSizes}
	for _, r := range rows {
		out.ModelMean = append(out.ModelMean, r.modelMean)
		out.SimMean = append(out.SimMean, r.simMean)
		out.KS = append(out.KS, r.ks)
		out.SelfKS = append(out.SelfKS, r.selfKS)
		out.SampleSizes = append(out.SampleSizes, r.samples)
	}
	return out, nil
}

// Table renders the distribution validation.
func (r *ValidationResult) Table() *Table {
	t := &Table{
		Title:   "Validation: model vs simulator completion-time distributions (two-sample KS)",
		Columns: []string{"neighbor set", "model mean", "sim mean", "KS(model,sim)", "KS noise floor"},
	}
	for i := range r.SetSizes {
		t.AddRow(float64(r.SetSizes[i]), r.ModelMean[i], r.SimMean[i], r.KS[i], r.SelfKS[i])
	}
	return t
}
