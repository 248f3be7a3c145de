package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig4aResult holds the efficiency-versus-k comparison of Figure 4(a).
type Fig4aResult struct {
	K []int
	// ModelEta is the balance-equation steady-state efficiency using the
	// persistence probability measured in the matching simulation run.
	ModelEta []float64
	// SimEta is the simulator's mean slot utilization.
	SimEta []float64
	// MeasuredPR is the per-k connection persistence measured in the sim
	// and fed into the model.
	MeasuredPR []float64
}

// Fig4a sweeps the maximum connection count k and compares the Section 5
// model's efficiency against the swarm simulator's.
func Fig4a(scale Scale) (*Fig4aResult, error) {
	logger.Debug("fig4a: start", "scale", scale.String())
	defer observeWalltime("fig4a", time.Now())
	pieces, initial, horizon := 100, 150, 250.0
	if scale == Quick {
		pieces, initial, horizon = 60, 100, 150
	}
	// One job per swept k: the simulator replication is seeded by k and
	// the balance-equation solve only consumes that run's measured p_r.
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	cfgs := configs(ks, func(k int) sim.Config {
		cfg := sim.DefaultConfig()
		cfg.Pieces = pieces
		cfg.MaxConns = k
		cfg.NeighborSet = 40
		cfg.InitialPeers = initial
		cfg.ArrivalRate = 3
		cfg.SeedUpload = 6
		cfg.Horizon = horizon
		cfg.TrackPeers = 0
		cfg.Seed1 = uint64(k)
		cfg.Seed2 = 0xF164A
		return cfg
	})
	type point struct {
		modelEta, simEta, pr float64
	}
	points, err := sweep("fig4a", cfgs, func(i int, res *sim.Result) (point, error) {
		eta, pr, err := modelEta(ks[i], res)
		return point{modelEta: eta, simEta: res.MeanEfficiency(), pr: pr}, err
	})
	if err != nil {
		return nil, err
	}
	out := &Fig4aResult{K: ks}
	for _, p := range points {
		out.ModelEta = append(out.ModelEta, p.modelEta)
		out.SimEta = append(out.SimEta, p.simEta)
		out.MeasuredPR = append(out.MeasuredPR, p.pr)
	}
	return out, nil
}

// modelEta is the one route from a simulator run to a model η (§4's
// method: measure, then feed the model): the §5 efficiency model for k
// connections at the run's measured p_r, or at core.CalibratedPR(k) when
// the run measured no connection. Fig4a, ValidateDistributions and
// FluidConvergence use it.
func modelEta(k int, res *sim.Result) (eta, pr float64, err error) {
	pr = res.MeanPR()
	if math.IsNaN(pr) {
		pr = core.CalibratedPR(k)
	}
	model, err := core.SolveEfficiency(core.EfficiencyParams{K: k, PR: pr}, 1e-9, 500000)
	if err != nil {
		return 0, 0, err
	}
	return model.Eta, pr, nil
}

// Table renders the Figure 4(a) rows.
func (r *Fig4aResult) Table() *Table {
	t := &Table{
		Title:   "Figure 4(a): efficiency vs number of connections k (model upper bound vs simulation)",
		Columns: []string{"k", "model", "simulation", "measured p_r"},
	}
	for i := range r.K {
		t.AddRow(float64(r.K[i]), r.ModelEta[i], r.SimEta[i], r.MeasuredPR[i])
	}
	return t
}

// StabilityRun is one swarm evolution from a skewed start (Figure 4b/c).
type StabilityRun struct {
	Pieces     int
	Times      []float64
	Population []float64
	Entropy    []float64
	Assessment core.StabilityAssessment
}

// Fig4bcResult compares the unstable small-B swarm against the stable
// larger-B swarm.
type Fig4bcResult struct {
	Runs []StabilityRun
}

// stabilityConfig is the calibrated skewed-start workload: λ = 15 peers
// per round against one seed, 500 initial peers holding mostly piece 0.
func stabilityConfig(pieces int, scale Scale) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Pieces = pieces
	cfg.NeighborSet = 20
	cfg.MaxConns = 4
	cfg.InitialPeers = 500
	cfg.InitialSkew = 0.95
	cfg.ArrivalRate = 15
	cfg.SeedUpload = 4
	cfg.OptimisticProb = 0.25
	cfg.Horizon = 300
	cfg.MaxPeers = 8000
	cfg.TrackPeers = 0
	cfg.Seed1 = uint64(pieces)
	cfg.Seed2 = 0xF164BC
	if scale == Quick {
		// The destabilizing arrival pressure must be kept; only the
		// horizon shrinks.
		cfg.Horizon = 220
		cfg.MaxPeers = 4000
	}
	return cfg
}

// Fig4bc runs the skewed-start stability experiment for B = 3 and B = 10
// (Figures 4b and 4c share these runs).
func Fig4bc(scale Scale) (*Fig4bcResult, error) {
	return stability("fig4bc", stabilityConfig, scale)
}

// stability runs the B = 3 and B = 10 evolutions of one stability
// workload (independently seeded runs) and assesses each entropy series.
// Fig4bc and Fig4bcXL differ only in the workload.
func stability(name string, config func(pieces int, scale Scale) sim.Config, scale Scale) (*Fig4bcResult, error) {
	logger.Debug(name+": start", "scale", scale.String())
	defer observeWalltime(name, time.Now())
	sizes := []int{3, 10}
	cfgs := configs(sizes, func(b int) sim.Config { return config(b, scale) })
	runs, err := sweep(name, cfgs, func(i int, res *sim.Result) (StabilityRun, error) {
		assess, err := core.AssessStability(res.EntropySeries.T, res.EntropySeries.V)
		return StabilityRun{
			Pieces:     sizes[i],
			Times:      append([]float64(nil), res.PopulationSeries.T...),
			Population: append([]float64(nil), res.PopulationSeries.V...),
			Entropy:    append([]float64(nil), res.EntropySeries.V...),
			Assessment: assess,
		}, err
	})
	if err != nil {
		return nil, err
	}
	return &Fig4bcResult{Runs: runs}, nil
}

// PopulationTable renders Figure 4(b): peers over time per B.
func (r *Fig4bcResult) PopulationTable(maxRows int) *Table {
	return r.seriesTable("Figure 4(b): number of peers over time from a skewed start",
		maxRows, func(run StabilityRun) []float64 { return run.Population })
}

// EntropyTable renders Figure 4(c): entropy over time per B.
func (r *Fig4bcResult) EntropyTable(maxRows int) *Table {
	return r.seriesTable("Figure 4(c): entropy over time from a skewed start",
		maxRows, func(run StabilityRun) []float64 { return run.Entropy })
}

func (r *Fig4bcResult) seriesTable(title string, maxRows int, pick func(StabilityRun) []float64) *Table {
	t := &Table{Title: title, Columns: []string{"t"}}
	for _, run := range r.Runs {
		t.Columns = append(t.Columns, fmt.Sprintf("B=%d", run.Pieces))
	}
	if len(r.Runs) == 0 {
		return t
	}
	// Runs may have different horizons (the XL harness extends only the
	// stable arm); the longest time base keeps every run's tail visible
	// and NaN-pads the shorter ones.
	base := r.Runs[0].Times
	for _, run := range r.Runs[1:] {
		if len(run.Times) > len(base) {
			base = run.Times
		}
	}
	for _, i := range downsampleIdx(len(base), maxRows) {
		row := []float64{base[i]}
		for _, run := range r.Runs {
			vals := pick(run)
			if i < len(vals) {
				row = append(row, vals[i])
			} else {
				row = append(row, math.NaN())
			}
		}
		t.AddRow(row...)
	}
	return t
}

// stabilityXLConfig is the Figure 4(b/c) workload with the population
// scaled 100× past the paper (50 000 initial peers, λ = 1500 per round,
// cap 800 000) on the struct-of-arrays core. Quick scale runs 10×.
func stabilityXLConfig(pieces int, scale Scale) sim.Config {
	cfg := stabilityConfig(pieces, scale)
	factor := 100
	if scale == Quick {
		factor = 10
	}
	cfg.InitialPeers *= factor
	cfg.ArrivalRate *= float64(factor)
	cfg.MaxPeers *= factor
	// The whole population scales, seeds included: keeping the paper's
	// lone seed against 100× the leechers would change the seed:peer
	// ratio and conflate scale with seed starvation.
	cfg.Seeds *= factor
	// The skewed cohort drains through bootstrap channels (optimistic
	// unchokes and seed adjacency) whose per-round capacity is contended
	// by fresh arrivals, so the stable arm's recovery transition moves
	// out with scale: the entropy jump was measured at t ≈ 460–515 for
	// 10× and t ≈ 650–710 for 100×. The stable arm's horizon sits at
	// least 1.5× past that jump (800 ≥ 1.5·515, 1200 ≥ 1.5·710) so the
	// drift assessment sees the recovered plateau, not the transition;
	// the unstable arm keeps the doubled paper window — running it longer
	// only rams the population into the MaxPeers cap and flattens the
	// growth curve the figure exists to show.
	cfg.Horizon *= 2
	if pieces >= 10 {
		cfg.Horizon = 1200
		if scale == Quick {
			cfg.Horizon = 800
		}
	}
	cfg.Seed2 = 0xF164B1
	return cfg
}

// Fig4bcXL reruns the skewed-start stability experiment at 100× the
// paper's population. The point is qualitative replication at scale: the
// small-B swarm must still destabilize (entropy decays, population
// grows toward the cap) and the larger-B swarm must still converge,
// demonstrating the paper's Section 6 result is not an artifact of the
// few-hundred-peer populations its simulator could reach.
func Fig4bcXL(scale Scale) (*Fig4bcResult, error) {
	return stability("fig4bcxl", stabilityXLConfig, scale)
}

// Fig4dResult compares per-block time-to-download near the end of the
// file with and without the Section 7.1 peer-set shake.
type Fig4dResult struct {
	Pieces int
	// Ordinals are the acquisition ordinals reported (paper: 190..200).
	Ordinals []int
	// NormalTTD and ShakeTTD are the mean inter-piece times at those
	// ordinals.
	NormalTTD []float64
	ShakeTTD  []float64
	// NormalMeanDT and ShakeMeanDT are whole-download means.
	NormalMeanDT float64
	ShakeMeanDT  float64
}

// fig4dConfig is the calibrated last-piece-prone workload: random-first
// picking over tiny stale neighbor sets.
func fig4dConfig(shake bool, scale Scale) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Pieces = 200
	cfg.NeighborSet = 8
	cfg.MaxConns = 7
	cfg.InitialPeers = 200
	cfg.ArrivalRate = 3
	cfg.SeedUpload = 2
	cfg.OptimisticProb = 0.1
	cfg.PieceSelection = sim.RandomFirst
	cfg.TrackerRefreshRounds = 1000
	cfg.Horizon = 600
	cfg.TrackPeers = 0
	cfg.Seed1 = 0xF164D
	cfg.Seed2 = 99
	if shake {
		cfg.ShakeThreshold = 0.9
	}
	if scale == Quick {
		cfg.Pieces = 120
		cfg.InitialPeers = 150
		cfg.Horizon = 400
	}
	return cfg
}

// Fig4d runs the normal and shaking swarms and extracts the tail-block
// download times.
func Fig4d(scale Scale) (*Fig4dResult, error) {
	logger.Debug("fig4d: start", "scale", scale.String())
	defer observeWalltime("fig4d", time.Now())
	// The normal and shake arms share a seed pair by design (same
	// workload, one knob) but are separate simulator instances — run both
	// concurrently.
	cfgs := configs([]bool{false, true}, func(shake bool) sim.Config { return fig4dConfig(shake, scale) })
	type arm struct {
		tail   []float64
		meanDT float64
	}
	arms, err := sweep("fig4d", cfgs, func(i int, res *sim.Result) (arm, error) {
		return arm{tailTTD(res, cfgs[i].Pieces), res.MeanDownloadTime()}, nil
	})
	if err != nil {
		return nil, err
	}
	pieces := cfgs[0].Pieces
	out := &Fig4dResult{
		Pieces:       pieces,
		NormalTTD:    arms[0].tail,
		ShakeTTD:     arms[1].tail,
		NormalMeanDT: arms[0].meanDT,
		ShakeMeanDT:  arms[1].meanDT,
	}
	for ord := pieces - pieces/20; ord < pieces; ord++ {
		out.Ordinals = append(out.Ordinals, ord+1)
	}
	return out, nil
}

// tailTTD is the mean time-to-download at each of the final 5% of block
// ordinals, as in the paper (NaN where no completion reached one).
func tailTTD(res *sim.Result, pieces int) []float64 {
	ttd := res.MeanTTDByOrdinal()
	var out []float64
	for ord := pieces - pieces/20; ord < pieces; ord++ {
		out = append(out, at(ttd, ord))
	}
	return out
}

func at(xs []float64, i int) float64 {
	if i < 0 || i >= len(xs) {
		return math.NaN()
	}
	return xs[i]
}

// Table renders the Figure 4(d) rows.
func (r *Fig4dResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf(
			"Figure 4(d): time-to-download per block near completion, normal (mean DT %.1f) vs shake (mean DT %.1f)",
			r.NormalMeanDT, r.ShakeMeanDT),
		Columns: []string{"block", "normal", "shake"},
	}
	for i := range r.Ordinals {
		t.AddRow(float64(r.Ordinals[i]), r.NormalTTD[i], r.ShakeTTD[i])
	}
	return t
}

// TailMeans returns the mean tail TTD of both settings (a scalar summary
// used in tests and EXPERIMENTS.md).
func (r *Fig4dResult) TailMeans() (normal, shake float64) {
	return stats.Mean(r.NormalTTD), stats.Mean(r.ShakeTTD)
}
