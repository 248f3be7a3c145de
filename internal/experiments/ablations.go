package experiments

import (
	"math"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Ablation experiments for the design choices DESIGN.md Section 6 calls
// out: piece selection, shake threshold, tracker refresh cadence, and
// seeding policy.

// PieceSelectionResult compares rarest-first against random-first on a
// skew-recovery workload.
type PieceSelectionResult struct {
	// Strategy, FinalEntropy, MeanEntropy, MeanDownloadTime per variant.
	Strategies   []sim.Strategy
	FinalEntropy []float64
	MeanEntropy  []float64
	MeanDT       []float64
}

// AblationPieceSelection measures how the piece-selection strategy drives
// the entropy dynamics of Section 6: rarest-first actively replicates
// under-replicated pieces, random-first does not.
func AblationPieceSelection(scale Scale) (*PieceSelectionResult, error) {
	logger.Debug("ablation piece-selection: start", "scale", scale.String())
	defer observeWalltime("ablation_piece_selection", time.Now())
	strategies := []sim.Strategy{sim.RarestFirst, sim.RandomFirst}
	type row struct {
		finalEnt, meanEnt, meanDT float64
	}
	cfgs := configs(strategies, func(strat sim.Strategy) sim.Config {
		cfg := sim.DefaultConfig()
		cfg.Pieces = 20
		cfg.NeighborSet = 20
		cfg.MaxConns = 4
		cfg.InitialPeers = 300
		cfg.InitialSkew = 0.95
		cfg.ArrivalRate = 6
		cfg.SeedUpload = 4
		cfg.PieceSelection = strat
		cfg.Horizon = 150
		cfg.TrackPeers = 0
		cfg.Seed1 = uint64(strat)
		cfg.Seed2 = 0xAB1
		if scale == Quick {
			cfg.InitialPeers = 150
			cfg.Horizon = 100
		}
		return cfg
	})
	rows, err := sweep("ablation piece selection", cfgs, func(_ int, res *sim.Result) (row, error) {
		n := res.EntropySeries.Len()
		return row{
			finalEnt: res.EntropySeries.V[n-1],
			meanEnt:  stats.Mean(res.EntropySeries.V),
			meanDT:   res.MeanDownloadTime(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &PieceSelectionResult{Strategies: strategies}
	for _, r := range rows {
		out.FinalEntropy = append(out.FinalEntropy, r.finalEnt)
		out.MeanEntropy = append(out.MeanEntropy, r.meanEnt)
		out.MeanDT = append(out.MeanDT, r.meanDT)
	}
	return out, nil
}

// Table renders the piece-selection ablation.
func (r *PieceSelectionResult) Table() *Table {
	t := &Table{
		Title:   "Ablation: piece selection strategy on a skewed swarm (B=20)",
		Columns: []string{"strategy(1=rarest,2=random)", "mean entropy", "final entropy", "mean DT"},
	}
	for i := range r.Strategies {
		t.AddRow(float64(r.Strategies[i]), r.MeanEntropy[i], r.FinalEntropy[i], r.MeanDT[i])
	}
	return t
}

// ShakeThresholdResult sweeps the Section 7.1 shake trigger point.
type ShakeThresholdResult struct {
	Thresholds []float64
	TailTTD    []float64
	MeanDT     []float64
	Shakes     []int
}

// AblationShakeThreshold sweeps the shake threshold over the Figure 4(d)
// workload (0 disables shaking).
func AblationShakeThreshold(scale Scale) (*ShakeThresholdResult, error) {
	logger.Debug("ablation shake-threshold: start", "scale", scale.String())
	defer observeWalltime("ablation_shake_threshold", time.Now())
	thresholds := []float64{0, 0.8, 0.9, 0.95}
	type row struct {
		tail, meanDT float64
		shakes       int
	}
	cfgs := configs(thresholds, func(th float64) sim.Config {
		cfg := fig4dConfig(false, scale)
		cfg.ShakeThreshold = th
		return cfg
	})
	rows, err := sweep("ablation shake", cfgs, func(i int, res *sim.Result) (row, error) {
		return row{
			tail:   tailMeanTTD(res, cfgs[i].Pieces),
			meanDT: res.MeanDownloadTime(),
			shakes: res.Shakes(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &ShakeThresholdResult{Thresholds: thresholds}
	for _, r := range rows {
		out.TailTTD = append(out.TailTTD, r.tail)
		out.MeanDT = append(out.MeanDT, r.meanDT)
		out.Shakes = append(out.Shakes, r.shakes)
	}
	return out, nil
}

// tailMeanTTD averages the mean time-to-download over the final 5% of
// block ordinals (NaN when no completion reached them).
func tailMeanTTD(res *sim.Result, pieces int) float64 {
	sum, n := 0.0, 0
	for _, v := range tailTTD(res, pieces) {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Table renders the shake-threshold ablation.
func (r *ShakeThresholdResult) Table() *Table {
	t := &Table{
		Title:   "Ablation: shake threshold (0 = no shaking) on the last-piece workload",
		Columns: []string{"threshold", "tail TTD", "mean DT", "shakes"},
	}
	for i := range r.Thresholds {
		t.AddRow(r.Thresholds[i], r.TailTTD[i], r.MeanDT[i], float64(r.Shakes[i]))
	}
	return t
}

// TrackerRefreshResult sweeps the tracker re-contact cadence.
type TrackerRefreshResult struct {
	RefreshRounds []int
	// TailTTD is the mean time-to-download over the final 5% of blocks:
	// stale neighborhoods starve the end of the download (the model's γ
	// shrinks when no fresh pieces flow into the neighbor set).
	TailTTD []float64
	MeanDT  []float64
}

// AblationTrackerRefresh measures how the neighbor-refresh cadence drives
// last-phase exposure — the simulator-side view of the model's γ: fresh
// neighborhoods keep pieces flowing in, stale ones starve the tail of the
// download.
func AblationTrackerRefresh(scale Scale) (*TrackerRefreshResult, error) {
	logger.Debug("ablation tracker-refresh: start", "scale", scale.String())
	defer observeWalltime("ablation_tracker_refresh", time.Now())
	cadences := []int{1, 5, 20, 1000}
	type row struct {
		tail, meanDT float64
	}
	cfgs := configs(cadences, func(refresh int) sim.Config {
		cfg := fig4dConfig(false, scale)
		cfg.TrackerRefreshRounds = refresh
		cfg.Seed1 = uint64(refresh)
		cfg.Seed2 = 0xAB3
		return cfg
	})
	rows, err := sweep("ablation refresh", cfgs, func(i int, res *sim.Result) (row, error) {
		return row{tail: tailMeanTTD(res, cfgs[i].Pieces), meanDT: res.MeanDownloadTime()}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &TrackerRefreshResult{RefreshRounds: cadences}
	for _, r := range rows {
		out.TailTTD = append(out.TailTTD, r.tail)
		out.MeanDT = append(out.MeanDT, r.meanDT)
	}
	return out, nil
}

// Table renders the tracker-refresh ablation.
func (r *TrackerRefreshResult) Table() *Table {
	t := &Table{
		Title:   "Ablation: tracker refresh cadence vs last-phase exposure (small neighbor sets)",
		Columns: []string{"refresh rounds", "tail TTD", "mean DT"},
	}
	for i := range r.RefreshRounds {
		t.AddRow(float64(r.RefreshRounds[i]), r.TailTTD[i], r.MeanDT[i])
	}
	return t
}

// SuperSeedResult compares normal and super-seeding on a skew-recovery
// workload.
type SuperSeedResult struct {
	Modes       []string
	MeanEntropy []float64
	Completions []int
	SeedUploads []int
}

// AblationSuperSeed compares the Section 7.2 super-seeding technique
// against plain seeding.
func AblationSuperSeed(scale Scale) (*SuperSeedResult, error) {
	logger.Debug("ablation super-seed: start", "scale", scale.String())
	defer observeWalltime("ablation_super_seed", time.Now())
	type row struct {
		mode        string
		meanEnt     float64
		completions int
		uploads     int
	}
	modes := []string{"normal", "super"}
	cfgs := configs(modes, func(mode string) sim.Config {
		super := mode == "super"
		cfg := sim.DefaultConfig()
		cfg.Pieces = 10
		cfg.NeighborSet = 20
		cfg.MaxConns = 4
		cfg.InitialPeers = 200
		cfg.InitialSkew = 0.95
		cfg.ArrivalRate = 4
		cfg.SeedUpload = 4
		cfg.SuperSeed = super
		cfg.PieceSelection = sim.RandomFirst
		cfg.Horizon = 100
		cfg.TrackPeers = 0
		cfg.Seed1 = 0xAB4
		cfg.Seed2 = 0
		if super {
			cfg.Seed2 = 1
		}
		if scale == Quick {
			cfg.InitialPeers = 120
			cfg.Horizon = 60
		}
		return cfg
	})
	rows, err := sweep("ablation superseed", cfgs, func(i int, res *sim.Result) (row, error) {
		return row{
			mode:        modes[i],
			meanEnt:     stats.Mean(res.EntropySeries.V),
			completions: res.NumCompletions(),
			uploads:     res.SeedUploads(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &SuperSeedResult{}
	for _, r := range rows {
		out.Modes = append(out.Modes, r.mode)
		out.MeanEntropy = append(out.MeanEntropy, r.meanEnt)
		out.Completions = append(out.Completions, r.completions)
		out.SeedUploads = append(out.SeedUploads, r.uploads)
	}
	return out, nil
}

// Table renders the seeding-policy ablation.
func (r *SuperSeedResult) Table() *Table {
	t := &Table{
		Title:   "Ablation: seeding policy on a skewed swarm (0 = normal, 1 = super)",
		Columns: []string{"mode", "mean entropy", "completions", "seed uploads"},
	}
	for i := range r.Modes {
		mode := 0.0
		if r.Modes[i] == "super" {
			mode = 1
		}
		t.AddRow(mode, r.MeanEntropy[i], float64(r.Completions[i]), float64(r.SeedUploads[i]))
	}
	return t
}
