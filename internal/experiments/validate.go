package experiments

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ValidationResult scores one simulator run of the paper swarm per
// neighbor-set size against both lower tiers: the chain's exact
// completion-time distribution, so that only the sim side carries
// noise, and the Qiu–Srikant fluid steady state. Every chain and fluid
// input comes from the run's configuration or its measured p_r, never
// from its download time.
type ValidationResult struct {
	Rows []ValidationRow
}

// ValidationRow is the scoring of the run at neighbor-set size S.
type ValidationRow struct {
	S int
	// ChainMean is the chain's expected download time (steps = rounds);
	// SimMean is the mean over every completion of the run.
	ChainMean, SimMean float64
	// KS is the one-sample sup |F_sim − F_chain| over every completion,
	// F_chain the chain's exact CDF (TransientPhases' Done); Band is the
	// one-sample 95 % critical value for their count.
	KS, Band float64
	// CohortMean and CohortKS score the λ cohort alone: completions of
	// peers that arrived after t = 0, without the flash crowd.
	CohortMean, CohortKS float64
	// FluidDT is the fluid steady-state download time at ModelEta, to be
	// read against CohortMean: a steady state cannot describe the flash
	// crowd's transient.
	FluidDT float64
	// ModelEta is the §5 η at the run's measured p_r (modelEta), the η
	// fed to the fluid model; SimEta is the slot use the run realised.
	ModelEta, SimEta float64
}

// ValidateDistributions runs the paper swarm once per neighbor-set size
// and scores each run against the chain (exactly) and the fluid model.
// The fluid side is the paper's critique of fluid models (§2.2): the
// steady state sees the neighbor-set size only through η, which the §5
// model at the run's own p_r barely moves, while the sim shows s
// changing the download time materially.
func ValidateDistributions(scale Scale) (*ValidationResult, error) {
	logger.Debug("validate distributions: start", "scale", scale.String())
	defer observeWalltime("validate", time.Now())
	setSizes := []int{5, 15, 50}
	params := make([]core.Params, len(setSizes))
	cfgs := make([]sim.Config, len(setSizes))
	for i, s := range setSizes {
		cfgs[i], params[i] = paperSwarm(s, scale)
		cfgs[i].Seed2 = 0x7A13
	}
	rows, err := sweep("validate", cfgs, func(i int, res *sim.Result) (ValidationRow, error) {
		s, cfg, p := setSizes[i], cfgs[i], params[i]
		var all, cohort []float64
		longest := 0.0
		for k := range res.NumCompletions() {
			c := res.Completion(k)
			all = append(all, c.Duration())
			if c.ArrivedAt > 0 {
				cohort = append(cohort, c.Duration())
			}
			longest = math.Max(longest, c.Duration())
		}
		chainMean, err := core.ExpectedDownloadTime(p)
		if err != nil {
			return ValidationRow{}, err
		}
		occ, err := core.TransientPhases(p, int(math.Ceil(longest)))
		if err != nil {
			return ValidationRow{}, err
		}
		eta, _, err := modelEta(cfg.MaxConns, res)
		if err != nil {
			return ValidationRow{}, err
		}
		// Fluid model in file units: a peer moves at most MaxConns of the
		// Pieces pieces per round each way, so μ = c = MaxConns/Pieces; γ
		// is large because the simulator's completed peers leave at once
		// (the origin seed is a small additive term).
		mu := float64(cfg.MaxConns) / float64(cfg.Pieces)
		qs := fluid.QSParams{Lambda: cfg.ArrivalRate, C: mu, Mu: mu, Eta: eta, Gamma: 1000 * mu}
		ss, err := qs.ClosedFormSteadyState()
		if err != nil {
			return ValidationRow{}, err
		}
		return ValidationRow{
			S:          s,
			ChainMean:  chainMean,
			SimMean:    stats.Mean(all),
			KS:         stats.KolmogorovSmirnov(all, occ.Done),
			Band:       stats.KSCriticalValue(len(all), 0.05),
			CohortMean: stats.Mean(cohort),
			CohortKS:   stats.KolmogorovSmirnov(cohort, occ.Done),
			FluidDT:    ss.DownloadTime,
			ModelEta:   eta,
			SimEta:     res.MeanEfficiency(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ValidationResult{Rows: rows}, nil
}

// Table renders the three-tier validation, one row per neighbor set.
func (r *ValidationResult) Table() *Table {
	t := &Table{
		Title: "Validation: one sim run per neighbor set vs the chain's exact completion-time CDF " +
			"(one-sample KS, 95% band) and the Qiu-Srikant fluid steady state at the model eta " +
			"(lambda cohort: arrivals after t = 0)",
		Columns: []string{"neighbor set", "chain mean", "sim mean", "KS", "band",
			"lambda-cohort mean", "lambda-cohort KS", "fluid DT", "model eta", "sim eta"},
	}
	for _, v := range r.Rows {
		t.AddRow(float64(v.S), v.ChainMean, v.SimMean, v.KS, v.Band,
			v.CohortMean, v.CohortKS, v.FluidDT, v.ModelEta, v.SimEta)
	}
	return t
}
