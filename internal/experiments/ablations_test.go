package experiments

import (
	"math"
	"slices"
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

// TestTailMeanTTDNoCompletions: a run in which nobody finished has no
// per-ordinal times at all; its tail mean is "no observation", not a
// slice-bounds panic.
func TestTailMeanTTDNoCompletions(t *testing.T) {
	if got := tailMeanTTD(&sim.Result{}, 20); !math.IsNaN(got) {
		t.Fatalf("tailMeanTTD with no completions = %g, want NaN", got)
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
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %+v", r.Rows)
	}
	for _, v := range r.Rows {
		if math.IsNaN(v.KS) || v.KS < 0 || v.KS > 1 {
			t.Errorf("s=%d: KS = %g", v.S, v.KS)
		}
		// The KS against the chain must beat the trivial bound by a wide
		// margin: the chain and sim distributions overlap substantially.
		if v.KS > 0.8 {
			t.Errorf("s=%d: chain and sim distributions nearly disjoint (KS %g)", v.S, v.KS)
		}
		// Means agree within a factor 2 (the Figure 1(b) check).
		if ratio := v.ChainMean / v.SimMean; ratio < 0.5 || ratio > 2 {
			t.Errorf("s=%d: mean ratio %g", v.S, ratio)
		}
	}
	if len(r.Table().Rows) != 3 {
		t.Error("table shape")
	}

	// The chain side is exact: the chain's own ensemble scored against
	// the CDF the harness uses stays under the 1% critical value.
	_, p := paperSwarm(5, Quick)
	m, err := core.NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	es, err := m.Ensemble(stats.NewRNG(5, 0x7A11), 400)
	if err != nil {
		t.Fatal(err)
	}
	if es.Truncated != 0 {
		t.Fatalf("%d of 400 chain runs truncated", es.Truncated)
	}
	occ, err := core.TransientPhases(p, int(slices.Max(es.CompletionTimes)))
	if err != nil {
		t.Fatal(err)
	}
	if d, crit := stats.KolmogorovSmirnov(es.CompletionTimes, occ.Done), stats.KSCriticalValue(400, 0.01); d >= crit {
		t.Errorf("chain ensemble vs exact CDF: KS %g above critical %g", d, crit)
	}
}

// TestFluidComparison checks the fluid rows of the validate harness: the
// Qiu-Srikant steady state at the model η against the λ cohort's mean.
func TestFluidComparison(t *testing.T) {
	r, err := ValidateDistributions(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %+v", r.Rows)
	}
	// The fluid rows read the λ cohort. Nothing is fitted: the fluid DT
	// uses the configured slots and the model η at the run's measured
	// p_r. At s = 50 its one residual is that η against the slot use the
	// run realised, so rescaling by the two must land on the sim DT.
	small, large := r.Rows[0], r.Rows[len(r.Rows)-1]
	if rescaled := large.FluidDT * large.ModelEta / large.SimEta; math.Abs(rescaled-large.CohortMean)/large.CohortMean > 0.05 {
		t.Errorf("s=50: fluid DT %g × model η %g / sim η %g = %g, want within 5%% of sim DT %g",
			large.FluidDT, large.ModelEta, large.SimEta, rescaled, large.CohortMean)
	}
	// At s = 5, even fed the run's own p_r, the fluid model misses the
	// neighbor-set penalty the sim shows...
	if small.CohortMean <= 1.15*small.FluidDT {
		t.Errorf("s=5: sim DT %g within 15%% of fluid DT %g: the fluid model should miss the penalty",
			small.CohortMean, small.FluidDT)
	}
	// ...which is the neighbor-set effect the fluid model cannot express
	// (the paper's core critique).
	if small.CohortMean <= 1.15*large.CohortMean {
		t.Errorf("sim must show a neighbor-set effect: s=5 %g vs s=50 %g", small.CohortMean, large.CohortMean)
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
