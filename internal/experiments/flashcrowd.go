package experiments

import (
	"math"
	"time"

	"repro/internal/sim"
)

// FlashCrowdResult captures the service-capacity scaling contrast the
// related work establishes (Yang & de Veciana, discussed in the paper's
// Section 2.2): in a flash crowd the swarm's capacity grows with every
// completed peer, so drain time scales roughly logarithmically with the
// burst size, while in the steady state the mean download time is nearly
// independent of the arrival rate.
type FlashCrowdResult struct {
	// BurstSizes and DrainTime: time until 90% of a one-shot burst of
	// peers completed, per burst size.
	BurstSizes []int
	DrainTime  []float64
	// Lambdas and SteadyDT: mean download time per Poisson arrival rate.
	Lambdas  []float64
	SteadyDT []float64
}

// FlashCrowd runs the burst-drain sweep and the steady-state sweep.
func FlashCrowd(scale Scale) (*FlashCrowdResult, error) {
	logger.Debug("flash crowd: start", "scale", scale.String())
	defer observeWalltime("flashcrowd", time.Now())
	pieces := 60
	bursts := []int{50, 100, 200, 400}
	lambdas := []float64{1, 2, 4}
	horizon := 400.0
	if scale == Quick {
		pieces = 30
		bursts = []int{40, 80, 160}
		horizon = 250
	}
	// Both sweeps share one workload and differ in the initial crowd, the
	// arrival rate and the seeds.
	config := func(initial int, lambda float64, seed1, seed2 uint64) sim.Config {
		cfg := sim.DefaultConfig()
		cfg.Pieces = pieces
		cfg.MaxConns = 4
		cfg.NeighborSet = 25
		cfg.InitialPeers = initial
		cfg.ArrivalRate = lambda
		cfg.SeedUpload = 4
		cfg.Horizon = horizon
		cfg.TrackPeers = 0
		cfg.Seed1, cfg.Seed2 = seed1, seed2
		return cfg
	}
	drains, err := sweep("flash crowd burst",
		configs(bursts, func(n int) sim.Config { return config(n, 0, uint64(n), 0xFC) }),
		func(i int, res *sim.Result) (float64, error) { return drainTime(res, bursts[i], 0.9), nil })
	if err != nil {
		return nil, err
	}
	steady, err := sweep("flash crowd steady",
		configs(lambdas, func(l float64) sim.Config { return config(40, l, uint64(l*10), 0xFD) }),
		func(_ int, res *sim.Result) (float64, error) { return res.MeanDownloadTime(), nil })
	if err != nil {
		return nil, err
	}
	return &FlashCrowdResult{
		BurstSizes: bursts, DrainTime: drains,
		Lambdas: lambdas, SteadyDT: steady,
	}, nil
}

// drainTime finds the virtual time by which frac of the burst completed.
func drainTime(res *sim.Result, burst int, frac float64) float64 {
	i := max(int(frac*float64(burst)), 1) - 1
	if i >= res.NumCompletions() {
		return math.NaN()
	}
	return res.Completion(i).DoneAt
}

// BurstTable renders the flash-crowd drain sweep.
func (r *FlashCrowdResult) BurstTable() *Table {
	t := &Table{
		Title:   "Flash crowd: time to drain 90% of a one-shot burst (capacity grows with completions)",
		Columns: []string{"burst size", "drain time"},
	}
	for i := range r.BurstSizes {
		t.AddRow(float64(r.BurstSizes[i]), r.DrainTime[i])
	}
	return t
}

// SteadyTable renders the steady-state sweep.
func (r *FlashCrowdResult) SteadyTable() *Table {
	t := &Table{
		Title:   "Steady state: mean download time vs Poisson arrival rate (near-constant)",
		Columns: []string{"lambda", "mean DT"},
	}
	for i := range r.Lambdas {
		t.AddRow(r.Lambdas[i], r.SteadyDT[i])
	}
	return t
}
