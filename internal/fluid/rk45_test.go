package fluid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestSolveExponentialDecay(t *testing.T) {
	decay := func(_ float64, y, d []float64) { d[0] = -y[0] }
	grid := []float64{0, 1, 2.5, 5}
	sol, err := Solve(context.Background(), decay, []float64{1}, 0, 5, grid, SolveOpts{RTol: 1e-8, ATol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.T) != len(grid) {
		t.Fatalf("sampled %d points, want %d", len(sol.T), len(grid))
	}
	for i, tg := range grid {
		want := math.Exp(-tg)
		if got := sol.Y[i][0]; math.Abs(got-want) > 1e-7 {
			t.Errorf("y(%g) = %.10f, want %.10f", tg, got, want)
		}
	}
	if got, want := sol.Final[0], math.Exp(-5.0); math.Abs(got-want) > 1e-7 {
		t.Errorf("final = %.10f, want %.10f", got, want)
	}
	if sol.Steps == 0 || sol.FEvals == 0 {
		t.Errorf("counters not populated: %+v", sol)
	}
}

func TestSolveHarmonicOscillatorAdaptive(t *testing.T) {
	// y'' = -y over many periods: the embedded error control must hold the
	// phase, which a too-coarse fixed step would lose.
	osc := func(_ float64, y, d []float64) { d[0], d[1] = y[1], -y[0] }
	horizon := 20 * math.Pi
	sol, err := Solve(context.Background(), osc, []float64{1, 0}, 0, horizon, nil, SolveOpts{RTol: 1e-9, ATol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Final[0]-1) > 1e-6 || math.Abs(sol.Final[1]) > 1e-6 {
		t.Errorf("after 10 periods got (%g, %g), want (1, 0)", sol.Final[0], sol.Final[1])
	}
}

func TestSolveDenseOutputAccuracy(t *testing.T) {
	// Dense samples must be accurate between accepted steps, not only at
	// step ends. Force large steps with loose tolerance and compare the
	// interpolant against the exact solution of y' = cos(t).
	f := func(tt float64, _, d []float64) { d[0] = math.Cos(tt) }
	grid := make([]float64, 101)
	for i := range grid {
		grid[i] = float64(i) * 0.1
	}
	sol, err := Solve(context.Background(), f, []float64{0}, 0, 10, grid, SolveOpts{RTol: 1e-6, ATol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for i, tg := range grid {
		if want := math.Sin(tg); math.Abs(sol.Y[i][0]-want) > 1e-5 {
			t.Errorf("dense y(%g) = %g, want %g", tg, sol.Y[i][0], want)
		}
	}
}

func TestSolveDeterministicBitIdentical(t *testing.T) {
	// The determinism claim served responses rely on: identical inputs
	// produce identical floats and counters, run after run.
	p := QSParams{Lambda: 2, C: 1, Mu: 0.5, Eta: 0.8, Gamma: 0.7}
	grid := []float64{0, 10, 50, 100}
	run := func() *Solution {
		sol, err := Solve(context.Background(), p.Derivs(), []float64{0, 1}, 0, 100, grid, SolveOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated solves differ:\n%+v\n%+v", a, b)
	}
	for i := range a.Y {
		for j := range a.Y[i] {
			if math.Float64bits(a.Y[i][j]) != math.Float64bits(b.Y[i][j]) {
				t.Fatalf("sample [%d][%d] not bit-identical", i, j)
			}
		}
	}
}

func TestSolveMatchesRK4OnSmoothProblem(t *testing.T) {
	p := QSParams{Lambda: 1, C: 2, Mu: 1, Eta: 1, Gamma: 1}
	fixed, err := RK4(p.Derivs(), []float64{0, 1}, 0, 50, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(context.Background(), p.Derivs(), []float64{0, 1}, 0, 50, nil, SolveOpts{RTol: 1e-9, ATol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fixed {
		if math.Abs(fixed[i]-sol.Final[i]) > 1e-5 {
			t.Errorf("component %d: rk4 %g vs rk45 %g", i, fixed[i], sol.Final[i])
		}
	}
}

func TestSolveDivergenceGuard(t *testing.T) {
	// y' = y² from y(0)=1 blows up at t=1; the solver must return
	// ErrDiverged, not loop or emit Inf.
	blow := func(_ float64, y, d []float64) { d[0] = y[0] * y[0] }
	_, err := Solve(context.Background(), blow, []float64{1}, 0, 2, nil, SolveOpts{})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestSolveNaNVectorField(t *testing.T) {
	bad := func(tt float64, _, d []float64) {
		d[0] = 1
		if tt > 0.5 {
			d[0] = math.NaN()
		}
	}
	_, err := Solve(context.Background(), bad, []float64{0}, 0, 1, nil, SolveOpts{})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestSolveValidation(t *testing.T) {
	f := func(_ float64, _, d []float64) { d[0] = 0 }
	cases := []struct {
		name string
		y0   []float64
		t0   float64
		t1   float64
		grid []float64
		opts SolveOpts
	}{
		{"empty state", nil, 0, 1, nil, SolveOpts{}},
		{"reversed interval", []float64{1}, 1, 0, nil, SolveOpts{}},
		{"nan interval", []float64{1}, 0, math.NaN(), nil, SolveOpts{}},
		{"negative rtol", []float64{1}, 0, 1, nil, SolveOpts{RTol: -1}},
		{"nan atol", []float64{1}, 0, 1, nil, SolveOpts{ATol: math.NaN()}},
		{"grid out of range", []float64{1}, 0, 1, []float64{2}, SolveOpts{}},
		{"grid unordered", []float64{1}, 0, 1, []float64{0.5, 0.2}, SolveOpts{}},
		{"grid nan", []float64{1}, 0, 1, []float64{math.NaN()}, SolveOpts{}},
	}
	for _, tc := range cases {
		if _, err := Solve(context.Background(), f, tc.y0, tc.t0, tc.t1, tc.grid, tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSolveEmptyInterval(t *testing.T) {
	f := func(_ float64, _, d []float64) { d[0] = 1 }
	sol, err := Solve(context.Background(), f, []float64{7}, 3, 3, []float64{3, 3}, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Final[0] != 7 || len(sol.T) != 2 || sol.Y[0][0] != 7 || sol.Y[1][0] != 7 {
		t.Fatalf("degenerate interval mishandled: %+v", sol)
	}
}

func TestSolveContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	slow := func(_ float64, y, d []float64) {
		n++
		if n > 50 {
			cancel()
		}
		d[0] = math.Sin(y[0])
	}
	_, err := Solve(ctx, slow, []float64{1}, 0, 1e6, nil, SolveOpts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSolveOnStepMonotone(t *testing.T) {
	decay := func(_ float64, y, d []float64) { d[0] = -y[0] }
	prev := 0.0
	calls := 0
	_, err := Solve(context.Background(), decay, []float64{1}, 0, 10, nil, SolveOpts{
		OnStep: func(tt float64, y []float64) {
			calls++
			if tt <= prev || tt > 10 {
				t.Fatalf("OnStep time %g not monotone in (0, 10]", tt)
			}
			prev = tt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnStep never called")
	}
	if prev != 10 {
		t.Fatalf("last OnStep at %g, want exactly the horizon", prev)
	}
}

func TestSolveRandomizedProblemsStayControlled(t *testing.T) {
	// Fuzz-lite: random stable linear systems must integrate without
	// divergence and land near the analytic decay envelope.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		a := 0.1 + 2*rng.Float64() // decay rate
		b := rng.Float64()         // coupling
		f := func(_ float64, y, d []float64) {
			d[0] = -a*y[0] + b*y[1]
			d[1] = -a*y[1] - b*y[0]
		}
		sol, err := Solve(context.Background(), f, []float64{1, 1}, 0, 8, nil, SolveOpts{})
		if err != nil {
			t.Fatalf("trial %d (a=%g b=%g): %v", trial, a, b, err)
		}
		// |y| = sqrt(2)·e^{-a t} exactly (rotation + uniform decay).
		want := math.Sqrt2 * math.Exp(-a*8)
		got := math.Hypot(sol.Final[0], sol.Final[1])
		if math.Abs(got-want) > 1e-4*(1+want) {
			t.Errorf("trial %d: |y(8)| = %g, want %g", trial, got, want)
		}
	}
}

// TestRK4GridDriftRegression pins the satellite fix: observe times must
// be exact multiples of dt (no float accumulation drift) and the grid
// must be horizon-invariant — a longer integration reproduces the
// shorter one's time stamps bit-for-bit over the shared prefix.
func TestRK4GridDriftRegression(t *testing.T) {
	decay := func(_ float64, y, d []float64) { d[0] = -0.1 * y[0] }
	collect := func(horizon float64) ([]float64, []float64) {
		var ts, ys []float64
		_, err := RK4(decay, []float64{1}, 0, horizon, 0.1, func(tt float64, y []float64) {
			ts = append(ts, tt)
			ys = append(ys, y[0])
		})
		if err != nil {
			t.Fatal(err)
		}
		return ts, ys
	}
	ts, _ := collect(100)
	// 0.1 is not exactly representable; naive t += h accumulates ~1e-13
	// by t=100. The fix computes t_i = i·dt by one multiplication.
	for i, tt := range ts {
		want := float64(i) * 0.1
		if math.Float64bits(tt) != math.Float64bits(want) {
			t.Fatalf("observe time [%d] = %.17g, want exact %.17g", i, tt, want)
		}
	}
	if last := ts[len(ts)-1]; last != 100 {
		t.Fatalf("grid ends at %g, want exactly the horizon", last)
	}
	// Horizon invariance: prefix of the t=1000 run is bit-identical.
	tsLong, ysLong := collect(1000)
	tsShort, ysShort := collect(100)
	for i := range tsShort {
		if math.Float64bits(tsShort[i]) != math.Float64bits(tsLong[i]) {
			t.Fatalf("time prefix diverges at %d: %g vs %g", i, tsShort[i], tsLong[i])
		}
		if math.Float64bits(ysShort[i]) != math.Float64bits(ysLong[i]) {
			t.Fatalf("state prefix diverges at %d", i)
		}
	}
}

func TestRK4PartialFinalStep(t *testing.T) {
	// Horizon not a multiple of dt: the final step is the partial h that
	// lands exactly on t1.
	var ts []float64
	_, err := RK4(func(_ float64, y, d []float64) { d[0] = 1 }, []float64{0}, 0, 1.05, 0.5,
		func(tt float64, _ []float64) { ts = append(ts, tt) })
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 1.0, 1.05}
	if !reflect.DeepEqual(ts, want) {
		t.Fatalf("observe times %v, want %v", ts, want)
	}
}
