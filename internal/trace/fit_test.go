package trace_test

// The synthetic traces are the chain's own trajectories
// (core.Trajectory.Download) and the fit is the chain's inverse
// (core.Estimate). These tests check both through the trace format:
// every trace is written and read back before it is analyzed or fitted.

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// reread returns d after a write/read round trip.
func reread(t *testing.T, d *trace.Download) *trace.Download {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// chainTraces samples runs trajectories of p, run i from r.At(i), as
// traces read back from their files.
func chainTraces(t *testing.T, p core.Params, runs int, r *stats.RNG) []*trace.Download {
	t.Helper()
	m, err := core.NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*trace.Download, runs)
	for i := range out {
		out[i] = reread(t, m.SampleTrajectory(r.At(i)).Download(p))
	}
	return out
}

// at50 is p at B = 50 with a uniform piece distribution.
func at50(p core.Params) core.Params {
	p.B, p.Phi = 50, core.UniformPhi(50)
	return p
}

// checkRecovery fits 4 000 chain traces of p and reads its parameters
// back: every scalar the traces inform lies within 4 SE of the truth,
// the p_(x) curve's largest |z| is at most 4.5, an uninformed scalar
// prints "no information", and one sample pair is one chain step.
func checkRecovery(t *testing.T, p core.Params) core.Estimates {
	t.Helper()
	est, err := core.Estimate(chainTraces(t, p, 4000, stats.NewRNG(37, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if est.OffStep != 0 || est.Interval != 1 {
		t.Errorf("off-step share %g, interval %g; want 0 and 1", est.OffStep, est.Interval)
	}
	scalarZ := 0.0
	for _, s := range []struct {
		name  string
		est   core.ParamEstimate
		truth float64
	}{
		{"p_init", est.PInit, p.PInit}, {"alpha", est.Alpha, p.Alpha},
		{"gamma", est.Gamma, p.Gamma}, {"p_r", est.PR, p.PR}, {"p_n", est.PN, p.PN},
	} {
		switch {
		case s.est.Count == 0:
			if s.est.String() != "no information" {
				t.Errorf("uninformed %s prints %q", s.name, s.est)
			}
		case math.Abs(s.est.Value-s.truth) > 4*s.est.SE:
			t.Errorf("%s = %s, truth %g", s.name, s.est, s.truth)
		default:
			scalarZ = max(scalarZ, math.Abs(s.est.Value-s.truth)/s.est.SE)
		}
	}
	// A level's z is taken under the truth, so a level that drew nothing
	// but zeros still scores.
	curve := core.TradingPowerCurve(p.Phi)
	worst := 0.0
	for _, lv := range est.Power {
		want := curve[lv.X]
		z := (lv.Value - want) / math.Sqrt(want*(1-want)/float64(lv.Count*p.S))
		if want*(1-want) == 0 && lv.Value == want {
			z = 0
		}
		worst = max(worst, math.Abs(z))
	}
	if len(est.Power) == 0 || worst > 4.5 {
		t.Errorf("p_(x) curve over %d levels has largest |z| %.3g", len(est.Power), worst)
	}
	t.Logf("largest scalar |z| %.3g, largest p_(x) |z| %.3g over %d levels\n%s",
		scalarZ, worst, len(est.Power), est)
	return est
}

// TestFitRecoversSyntheticParameters: the bootstrap parameters p_init
// and α come back from chain traces at the default and at a slow-boot
// configuration.
func TestFitRecoversSyntheticParameters(t *testing.T) {
	slowBoot := at50(core.DefaultParams(5))
	slowBoot.Alpha, slowBoot.PInit = 0.02, 0.05
	for _, p := range []core.Params{at50(core.DefaultParams(5)), slowBoot} {
		if est := checkRecovery(t, p); est.Alpha.Count == 0 || est.PInit.Count == 0 {
			t.Errorf("alpha=%g p_init=%g: %s", p.Alpha, p.PInit, est)
		}
	}
}

// TestFitGammaFromLastPhaseTraces: γ comes back from chain traces with a
// slow last phase.
func TestFitGammaFromLastPhaseTraces(t *testing.T) {
	p := at50(core.DefaultParams(5))
	p.Gamma = 0.02
	if est := checkRecovery(t, p); est.Gamma.Count == 0 {
		t.Errorf("no gamma information:\n%s", est)
	}
}

// TestFitPotentialRatioFromSmoothTraces: at DefaultParams(50) the
// download is smooth, the p_(x) curve is informed at every level, and no
// step waits with an empty potential set, so α and γ have no information.
func TestFitPotentialRatioFromSmoothTraces(t *testing.T) {
	p := core.DefaultParams(50)
	est := checkRecovery(t, p)
	if len(est.Power) != p.B || est.Alpha.Count != 0 || est.Gamma.Count != 0 {
		t.Errorf("%d of %d levels; alpha %d, gamma %d pairs", len(est.Power), p.B, est.Alpha.Count, est.Gamma.Count)
	}
}

// goodTrace is a minimal valid download: monotone time, bytes, and
// pieces over four sample pairs.
func goodTrace() *trace.Download {
	return &trace.Download{
		Meta: trace.Meta{Client: "t", Pieces: 4, PieceSize: 10, NeighborCap: 4, ConnCap: 2},
		Samples: []trace.Sample{
			{T: 0}, {T: 1, Bytes: 10, Pieces: 1, Potential: 2},
			{T: 2, Bytes: 20, Pieces: 2, Potential: 2, Conns: 1},
			{T: 3, Bytes: 30, Pieces: 3, Potential: 1, Conns: 1}, {T: 4, Bytes: 40, Pieces: 4},
		},
	}
}

// TestFitRejectsEmpty: no trace, and a trace without samples, give no
// sample pair to fit.
func TestFitRejectsEmpty(t *testing.T) {
	if _, err := core.Estimate(nil); !errors.Is(err, core.ErrNoTraces) {
		t.Errorf("empty: %v", err)
	}
	none := &trace.Download{Meta: trace.Meta{Pieces: 2, PieceSize: 1}}
	if _, err := core.Estimate([]*trace.Download{reread(t, none)}); !errors.Is(err, core.ErrNoTraces) {
		t.Errorf("no samples: %v", err)
	}
	if est, err := core.Estimate([]*trace.Download{reread(t, goodTrace())}); err != nil || est.Pairs != 4 {
		t.Errorf("good trace: %+v, %v", est, err)
	}
}

// TestFitSinglePointTrace: one sample is no sample pair, and too few
// samples to analyze.
func TestFitSinglePointTrace(t *testing.T) {
	single := goodTrace()
	single.Samples = single.Samples[:1]
	single = reread(t, single)
	if _, err := core.Estimate([]*trace.Download{single}); !errors.Is(err, core.ErrNoTraces) {
		t.Fatalf("err = %v, want ErrNoTraces", err)
	}
	if _, err := trace.Analyze(single); !errors.Is(err, trace.ErrEmptyTrace) {
		t.Fatalf("Analyze(single) = %v, want ErrEmptyTrace", err)
	}
}

// TestFitNonMonotonePieces: a trace whose piece count decreases fails
// validation, and the fit refuses it by its index, also beside a good
// trace.
func TestFitNonMonotonePieces(t *testing.T) {
	bad := goodTrace()
	bad.Samples[3].Pieces = 1 // 2 -> 1: pieces went backwards
	if _, err := trace.Analyze(bad); err == nil {
		t.Fatal("Analyze accepted a non-monotone piece count")
	}
	_, err := core.Estimate([]*trace.Download{goodTrace(), bad})
	if err == nil || errors.Is(err, core.ErrNoTraces) || !strings.HasPrefix(err.Error(), "core: trace 1:") {
		t.Fatalf("Estimate(good, bad) = %v, want trace 1 refused", err)
	}
}

// TestFitSkipsBackwardsTimeAndBytes covers the other two monotonicity
// axes Validate enforces: the fit refuses either trace rather than read
// its pairs.
func TestFitSkipsBackwardsTimeAndBytes(t *testing.T) {
	backTime := goodTrace()
	backTime.Samples[2].T = 0.5 // time went backwards
	backBytes := goodTrace()
	backBytes.Samples[2].Bytes = 5 // bytes decreased
	for name, d := range map[string]*trace.Download{"time": backTime, "bytes": backBytes} {
		if _, err := core.Estimate([]*trace.Download{d}); err == nil || errors.Is(err, core.ErrNoTraces) {
			t.Errorf("%s: Estimate = %v, want the trace refused", name, err)
		}
	}
}

// TestFitZeroDurationTrace: all samples at the same instant give a zero
// duration; the fit reads their pairs with a zero sample interval.
func TestFitZeroDurationTrace(t *testing.T) {
	flat := reread(t, &trace.Download{
		Meta: trace.Meta{Pieces: 2, PieceSize: 1, NeighborCap: 2},
		Samples: []trace.Sample{
			{T: 0, Potential: 1}, {T: 0, Bytes: 1, Pieces: 1, Potential: 1}, {T: 0, Bytes: 2, Pieces: 2},
		},
	})
	est, err := core.Estimate([]*trace.Download{flat})
	if err != nil {
		t.Fatalf("Estimate(flat) = %v", err)
	}
	if est.Pairs != 2 || est.Interval != 0 {
		t.Fatalf("zero-duration fit: %d pairs, interval %g; want 2 and 0", est.Pairs, est.Interval)
	}
}

// TestGenerateRegimes draws 200 chain trajectories from each regime's
// configuration, the ones bttrace -gen draws from: every trace is valid
// and complete, and Analyze classifies at least 180 of each as their own
// regime.
func TestGenerateRegimes(t *testing.T) {
	smooth, last, boot := core.DefaultParams(20), core.DefaultParams(5), core.DefaultParams(5)
	var err error
	if last.Phi, err = core.GeometricPhi(last.B, 0.5); err != nil {
		t.Fatal(err)
	}
	last.Gamma = 0.02
	boot.Alpha, boot.PInit = 0.002, 0.002
	for _, c := range []struct {
		regime trace.Regime
		p      core.Params
	}{{trace.RegimeSmooth, smooth}, {trace.RegimeLastPhase, last}, {trace.RegimeBootstrap, boot}} {
		own := 0
		for _, d := range chainTraces(t, c.p, 200, stats.NewRNG(37, 6)) {
			if err := d.Validate(); err != nil || !d.Complete() {
				t.Fatalf("%s: complete=%v, invalid chain trace: %v", c.regime, d.Complete(), err)
			}
			rep, err := trace.Analyze(d)
			if err != nil {
				t.Fatalf("%s: %v", c.regime, err)
			}
			if rep.Regime == c.regime {
				own++
			}
		}
		if own < 180 {
			t.Errorf("%s: %d of 200 draws classified as their own regime", c.regime, own)
		}
		t.Logf("%s: %d of 200 own regime", c.regime, own)
	}
}
