package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestAblationPieceSelection(t *testing.T) {
	r, err := AblationPieceSelection(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Strategies) != 2 || r.Strategies[0] != sim.RarestFirst {
		t.Fatalf("variants = %v", r.Strategies)
	}
	// Rarest-first must recover entropy at least as well as random-first
	// on a skewed swarm — that is the design rationale of Section 6.
	if r.MeanEntropy[0] < r.MeanEntropy[1]-0.05 {
		t.Errorf("rarest-first mean entropy %g below random-first %g",
			r.MeanEntropy[0], r.MeanEntropy[1])
	}
	for i, e := range r.MeanEntropy {
		if e < 0 || e > 1 || math.IsNaN(e) {
			t.Errorf("variant %d entropy %g", i, e)
		}
	}
	if len(r.Table().Rows) != 2 {
		t.Error("table shape")
	}
}

func TestAblationShakeThreshold(t *testing.T) {
	r, err := AblationShakeThreshold(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Thresholds) != 4 || r.Thresholds[0] != 0 {
		t.Fatalf("thresholds = %v", r.Thresholds)
	}
	if r.Shakes[0] != 0 {
		t.Error("threshold 0 must never shake")
	}
	for i := 1; i < len(r.Thresholds); i++ {
		if r.Shakes[i] == 0 {
			t.Errorf("threshold %g never shook", r.Thresholds[i])
		}
	}
	// Some shaking variant must beat the no-shake baseline on tail TTD.
	best := math.Inf(1)
	for i := 1; i < len(r.TailTTD); i++ {
		if r.TailTTD[i] < best {
			best = r.TailTTD[i]
		}
	}
	if best >= r.TailTTD[0] {
		t.Errorf("no shake threshold improved tail TTD: baseline %g, best %g",
			r.TailTTD[0], best)
	}
	if len(r.Table().Rows) != 4 {
		t.Error("table shape")
	}
}

func TestAblationTrackerRefresh(t *testing.T) {
	r, err := AblationTrackerRefresh(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RefreshRounds) != 4 {
		t.Fatalf("rounds = %v", r.RefreshRounds)
	}
	// Stale neighborhoods must starve the tail of the download relative
	// to per-round refresh (the Figure 4(d) mechanism).
	freshest := r.TailTTD[0] // refresh every round
	stalest := r.TailTTD[len(r.TailTTD)-1]
	if math.IsNaN(freshest) || math.IsNaN(stalest) {
		t.Fatal("tail TTDs missing")
	}
	if stalest <= 1.5*freshest {
		t.Errorf("stale tracker tail TTD %g must far exceed fresh %g",
			stalest, freshest)
	}
	if len(r.Table().Rows) != 4 {
		t.Error("table shape")
	}
}

func TestAblationSuperSeed(t *testing.T) {
	r, err := AblationSuperSeed(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Modes) != 2 || r.Modes[0] != "normal" || r.Modes[1] != "super" {
		t.Fatalf("modes = %v", r.Modes)
	}
	// Super-seeding must not collapse throughput, and must keep entropy
	// at least comparable on the skewed workload.
	if r.Completions[1] == 0 {
		t.Error("super-seeded swarm made no progress")
	}
	if r.MeanEntropy[1] < r.MeanEntropy[0]*0.8 {
		t.Errorf("super-seed entropy %g far below normal %g",
			r.MeanEntropy[1], r.MeanEntropy[0])
	}
	if len(r.Table().Rows) != 2 {
		t.Error("table shape")
	}
}

func TestFluidComparison(t *testing.T) {
	r, err := FluidComparison(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SetSizes) != 3 {
		t.Fatalf("set sizes = %v", r.SetSizes)
	}
	// Nothing is fitted: the fluid DT uses the configured slots and the
	// model η at the run's measured p_r. At s = 50 its one residual is
	// that η against the slot use the run realised, so rescaling by the
	// two must land on the sim DT.
	last := len(r.SimDT) - 1
	simLarge := r.SimDT[last]
	if rescaled := r.FluidDT[last] * r.ModelEta[last] / r.SimEta[last]; math.Abs(rescaled-simLarge)/simLarge > 0.05 {
		t.Errorf("s=50: fluid DT %g × model η %g / sim η %g = %g, want within 5%% of sim DT %g",
			r.FluidDT[last], r.ModelEta[last], r.SimEta[last], rescaled, simLarge)
	}
	// At s = 5, even fed the run's own p_r, the fluid model misses the
	// neighbor-set penalty the sim shows...
	if r.SimDT[0] <= 1.15*r.FluidDT[0] {
		t.Errorf("s=5: sim DT %g within 15%% of fluid DT %g: the fluid model should miss the penalty",
			r.SimDT[0], r.FluidDT[0])
	}
	// ...but the fluid model cannot express the neighbor-set effect the
	// simulator shows at s = 5 (the paper's core critique).
	simSmall := r.SimDT[0]
	if simSmall <= simLarge*1.15 {
		t.Errorf("sim must show a neighbor-set effect: s=5 %g vs s=50 %g",
			simSmall, simLarge)
	}
	if len(r.Table().Rows) != 3 {
		t.Error("table shape")
	}
}

func TestFlashCrowdScaling(t *testing.T) {
	r, err := FlashCrowd(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BurstSizes) < 3 || len(r.Lambdas) != 3 {
		t.Fatalf("sweep sizes: %v, %v", r.BurstSizes, r.Lambdas)
	}
	first := r.DrainTime[0]
	last := r.DrainTime[len(r.DrainTime)-1]
	if math.IsNaN(first) || math.IsNaN(last) {
		t.Fatal("burst did not drain within the horizon")
	}
	// Burst size grew 4x; swarming capacity growth must keep the drain
	// time growth far below linear.
	sizeRatio := float64(r.BurstSizes[len(r.BurstSizes)-1]) / float64(r.BurstSizes[0])
	timeRatio := last / first
	if timeRatio > sizeRatio/1.5 {
		t.Errorf("drain time scaled %gx for a %gx burst; want sublinear", timeRatio, sizeRatio)
	}
	// Steady state: the mean download time must be insensitive to lambda.
	minDT, maxDT := r.SteadyDT[0], r.SteadyDT[0]
	for _, dt := range r.SteadyDT {
		if math.IsNaN(dt) {
			t.Fatal("steady-state run had no completions")
		}
		minDT = math.Min(minDT, dt)
		maxDT = math.Max(maxDT, dt)
	}
	if maxDT > 2*minDT {
		t.Errorf("steady-state DT varies %g..%g across lambda; want near-constant", minDT, maxDT)
	}
	if len(r.BurstTable().Rows) == 0 || len(r.SteadyTable().Rows) == 0 {
		t.Error("tables empty")
	}
}

func TestValidateDistributions(t *testing.T) {
	r, err := ValidateDistributions(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SetSizes) != 2 {
		t.Fatalf("set sizes = %v", r.SetSizes)
	}
	for i, s := range r.SetSizes {
		if math.IsNaN(r.KS[i]) || r.KS[i] < 0 || r.KS[i] > 1 {
			t.Errorf("s=%d: KS = %g", s, r.KS[i])
		}
		// Two independent model ensembles must look alike: the noise
		// floor stays below the 1% critical value.
		n := r.SampleSizes[i][0]
		if crit := stats.KSCriticalValue(n, n, 0.01); r.SelfKS[i] >= crit {
			t.Errorf("s=%d: self-KS %g above critical %g", s, r.SelfKS[i], crit)
		}
		// The cross KS must beat the trivial bound by a wide margin: the
		// model and sim distributions overlap substantially.
		if r.KS[i] > 0.8 {
			t.Errorf("s=%d: model and sim distributions nearly disjoint (KS %g)", s, r.KS[i])
		}
		// Means agree within a factor 2 (the Figure 1(b) check).
		ratio := r.ModelMean[i] / r.SimMean[i]
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("s=%d: mean ratio %g", s, ratio)
		}
	}
	if len(r.Table().Rows) != 2 {
		t.Error("table shape")
	}
}

// Little's law: the model's λ·E[T] prediction must land near the
// simulator's steady-state leecher population.
func TestPredictPopulationMatchesSim(t *testing.T) {
	const (
		pieces = 50
		s      = 25
		lambda = 2.0
	)
	p := core.DefaultParams(s)
	p.B = pieces
	p.Phi = core.UniformPhi(pieces)
	predicted, err := core.PredictPopulation(p, lambda, stats.NewRNG(61, 62), 300)
	if err != nil {
		t.Fatal(err)
	}

	cfg := sim.DefaultConfig()
	cfg.Pieces = pieces
	cfg.MaxConns = 7
	cfg.NeighborSet = s
	cfg.InitialPeers = 40
	cfg.ArrivalRate = lambda
	cfg.SeedUpload = 6
	cfg.Horizon = 400
	cfg.TrackPeers = 0
	cfg.Seed1 = 63
	sw, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Steady-state population: average the second half of the series.
	n := res.PopulationSeries.Len()
	sum, cnt := 0.0, 0
	for i := n / 2; i < n; i++ {
		sum += res.PopulationSeries.V[i]
		cnt++
	}
	simPop := sum / float64(cnt)
	// Apply Little's law with the SIM's own mean download time as a
	// sanity anchor: that must agree tightly.
	anchor := lambda * res.MeanDownloadTime()
	if ratio := anchor / simPop; ratio < 0.6 || ratio > 1.6 {
		t.Errorf("Little's law anchor off: λ·E[T]=%g vs pop %g", anchor, simPop)
	}
	// The model's prediction must land within a factor 2 of the sim.
	if ratio := predicted / simPop; ratio < 0.5 || ratio > 2 {
		t.Errorf("model-predicted population %g vs sim %g (ratio %g)",
			predicted, simPop, ratio)
	}
}
