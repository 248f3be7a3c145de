package fluid

import (
	"context"
	"math"
	"testing"
)

func TestRK4ExponentialDecay(t *testing.T) {
	// y' = -y, y(0) = 1: y(t) = e^-t.
	f := func(_ float64, y, dydt []float64) { dydt[0] = -y[0] }
	end, err := RK4(f, []float64{1}, 0, 5, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-5)
	if math.Abs(end[0]-want) > 1e-8 {
		t.Errorf("y(5) = %g, want %g", end[0], want)
	}
}

func TestRK4HarmonicOscillatorEnergy(t *testing.T) {
	// y'' = -y as a system; energy (y² + v²)/2 is conserved.
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	end, err := RK4(f, []float64{1, 0}, 0, 20*math.Pi, 0.005, nil)
	if err != nil {
		t.Fatal(err)
	}
	energy := (end[0]*end[0] + end[1]*end[1]) / 2
	if math.Abs(energy-0.5) > 1e-6 {
		t.Errorf("energy = %g, want 0.5", energy)
	}
	// After 10 full periods the state returns to (1, 0).
	if math.Abs(end[0]-1) > 1e-5 || math.Abs(end[1]) > 1e-5 {
		t.Errorf("state after 10 periods = %v", end)
	}
}

func TestRK4ObserveAndPartialStep(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 1 }
	var times []float64
	end, err := RK4(f, []float64{0}, 0, 1.05, 0.5, func(tt float64, _ []float64) {
		times = append(times, tt)
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end[0]-1.05) > 1e-12 {
		t.Errorf("integral of 1 over [0,1.05] = %g", end[0])
	}
	// t0, 0.5, 1.0, and the clipped final 1.05.
	if len(times) != 4 || times[3] != 1.05 {
		t.Errorf("observed times %v", times)
	}
}

func TestRK4Validation(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 0 }
	if _, err := RK4(f, []float64{0}, 0, 1, 0, nil); err == nil {
		t.Error("zero step must be rejected")
	}
	if _, err := RK4(f, []float64{0}, 1, 0, 0.1, nil); err == nil {
		t.Error("reversed interval must be rejected")
	}
	if _, err := RK4(f, nil, 0, 1, 0.1, nil); err == nil {
		t.Error("empty state must be rejected")
	}
	// Divergence detection.
	boom := func(_ float64, y, dydt []float64) { dydt[0] = y[0] * y[0] }
	if _, err := RK4(boom, []float64{10}, 0, 100, 0.5, nil); err == nil {
		t.Error("divergence must be detected")
	}
}

// solveQS integrates p with the adaptive solver and samples it once per
// time unit, horizon included.
func solveQS(t *testing.T, p QSParams, x0, y0, horizon float64) *Trajectory {
	t.Helper()
	grid := make([]float64, int(horizon)+1)
	for i := range grid {
		grid[i] = float64(i)
	}
	tr, _, err := p.SolveAdaptive(context.Background(), x0, y0, horizon, grid, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestQSValidation(t *testing.T) {
	good := QSParams{Lambda: 1, C: 2, Mu: 0.5, Eta: 1, Gamma: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []QSParams{
		{Lambda: -1, C: 1, Mu: 1, Eta: 1, Gamma: 1},
		{Lambda: 1, C: 0, Mu: 1, Eta: 1, Gamma: 1},
		{Lambda: 1, C: 1, Mu: 0, Eta: 1, Gamma: 1},
		{Lambda: 1, C: 1, Mu: 1, Eta: 2, Gamma: 1},
		{Lambda: 1, C: 1, Mu: 1, Eta: 1, Gamma: 0},
		{Lambda: math.NaN(), C: 1, Mu: 1, Eta: 1, Gamma: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestQSConvergesToClosedForm(t *testing.T) {
	// Upload-constrained regime: μ small relative to c.
	p := QSParams{Lambda: 4, Theta: 0, C: 2, Mu: 0.25, Eta: 1, Gamma: 0.8}
	ss, err := p.ClosedFormSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if !ss.UploadConstrained {
		t.Fatal("expected upload-constrained regime")
	}
	// T = (1/1)(1/0.25 - 1/0.8) = 4 - 1.25 = 2.75.
	if math.Abs(ss.DownloadTime-2.75) > 1e-12 {
		t.Errorf("closed-form T = %g, want 2.75", ss.DownloadTime)
	}
	tr := solveQS(t, p, 1, 0, 400)
	n := len(tr.Leechers)
	if rel := math.Abs(tr.Leechers[n-1]-ss.Leechers) / ss.Leechers; rel > 0.01 {
		t.Errorf("x(inf) = %g, closed form %g", tr.Leechers[n-1], ss.Leechers)
	}
	if rel := math.Abs(tr.Seeds[n-1]-ss.Seeds) / ss.Seeds; rel > 0.01 {
		t.Errorf("y(inf) = %g, closed form %g", tr.Seeds[n-1], ss.Seeds)
	}
	if rel := math.Abs(tr.MeanDownloadTime(p.Lambda)-ss.DownloadTime) / ss.DownloadTime; rel > 0.02 {
		t.Errorf("Little's-law T = %g, closed form %g", tr.MeanDownloadTime(p.Lambda), ss.DownloadTime)
	}
}

func TestQSDownloadConstrainedRegime(t *testing.T) {
	// Seeds linger (small γ) and upload capacity is plentiful: downloads
	// are bounded by the download link, T = 1/c.
	p := QSParams{Lambda: 2, C: 0.5, Mu: 1, Eta: 1, Gamma: 0.2}
	ss, err := p.ClosedFormSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if ss.UploadConstrained {
		t.Fatal("expected download-constrained regime")
	}
	if math.Abs(ss.DownloadTime-2) > 1e-12 {
		t.Errorf("T = %g, want 1/c = 2", ss.DownloadTime)
	}
	tr := solveQS(t, p, 0, 0, 300)
	if rel := math.Abs(tr.MeanDownloadTime(p.Lambda)-2) / 2; rel > 0.05 {
		t.Errorf("integrated T = %g, want ~2", tr.MeanDownloadTime(p.Lambda))
	}
}

func TestQSClosedFormRequiresThetaZero(t *testing.T) {
	p := QSParams{Lambda: 1, Theta: 0.1, C: 1, Mu: 1, Eta: 1, Gamma: 1}
	if _, err := p.ClosedFormSteadyState(); err == nil {
		t.Error("theta > 0 must be rejected")
	}
	p2 := QSParams{Lambda: 1, C: 1, Mu: 1, Eta: 0, Gamma: 1}
	if _, err := p2.ClosedFormSteadyState(); err == nil {
		t.Error("eta = 0 must be rejected")
	}
}

func TestQSLambdaIndependenceOfDownloadTime(t *testing.T) {
	// The fluid model's signature property (paper Section 2.2 discussion):
	// in steady state the mean download time does not depend on the
	// arrival rate.
	base := QSParams{Lambda: 1, C: 3, Mu: 0.5, Eta: 1, Gamma: 1}
	ss1, err := base.ClosedFormSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	big := base
	big.Lambda = 50
	ss2, err := big.ClosedFormSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if ss1.DownloadTime != ss2.DownloadTime {
		t.Errorf("download time depends on lambda: %g vs %g",
			ss1.DownloadTime, ss2.DownloadTime)
	}
	if ss2.Leechers <= ss1.Leechers {
		t.Error("population must scale with lambda")
	}
}

func TestQSAbortsReducePopulation(t *testing.T) {
	noAbort := QSParams{Lambda: 5, Theta: 0, C: 2, Mu: 0.3, Eta: 1, Gamma: 0.7}
	withAbort := noAbort
	withAbort.Theta = 0.3
	tr1 := solveQS(t, noAbort, 0, 0, 300)
	tr2 := solveQS(t, withAbort, 0, 0, 300)
	n := len(tr1.Leechers)
	if tr2.Leechers[n-1] >= tr1.Leechers[n-1] {
		t.Errorf("aborts must shrink the leecher population: %g vs %g",
			tr2.Leechers[n-1], tr1.Leechers[n-1])
	}
}
