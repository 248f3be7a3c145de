package fluid

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestChunkParamsValidate(t *testing.T) {
	good := ChunkParams{K: 40, S: 5, Lambda: 2, C: 1, Mu: 0.5, Eta: 1, Gamma: 1, SeedFraction: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []ChunkParams{
		{K: 0, S: 5, C: 1, Mu: 1, Eta: 1},
		{K: 5000, S: 5, C: 1, Mu: 1, Eta: 1},
		{K: 40, S: 0, C: 1, Mu: 1, Eta: 1},
		{K: 40, S: 5, C: 0, Mu: 1, Eta: 1},
		{K: 40, S: 5, C: 1, Mu: 1, Eta: 1.5},
		{K: 40, S: 5, C: 1, Mu: 1, Eta: 1, Lambda: math.NaN()},
		{K: 40, S: 5, C: 1, Mu: 1, Eta: 1, Gamma: -1},
		{K: 40, S: 5, C: 1, Mu: 1, Eta: 1, SeedFraction: 2},
		{K: 40, S: 5, C: 1, Mu: 1, Eta: 1, SeedUpload: math.Inf(1)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestChunkUseProbTable(t *testing.T) {
	m, err := NewChunkModel(ChunkParams{K: 10, S: 5, Lambda: 1, C: 1, Mu: 1, Eta: 1, Gamma: 1, SeedFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := 10
	at := func(j, mm int) float64 { return m.use[j*(k+1)+mm] }
	// Empty contact is never useful; a contact with more pieces always is;
	// a seed (m = K) is always useful to any leecher.
	for j := 0; j < k; j++ {
		if at(j, 0) != 0 {
			t.Errorf("use(%d, 0) = %g, want 0", j, at(j, 0))
		}
		if at(j, k) != 1 {
			t.Errorf("use(%d, K) = %g, want 1", j, at(j, k))
		}
		for mm := j + 1; mm <= k; mm++ {
			if at(j, mm) != 1 {
				t.Errorf("use(%d, %d) = %g, want 1 (m > j pigeonhole)", j, mm, at(j, mm))
			}
		}
		// Monotone in m: more pieces never less useful.
		for mm := 1; mm <= k; mm++ {
			if at(j, mm) < at(j, mm-1)-1e-12 {
				t.Errorf("use(%d, ·) not monotone at m=%d", j, mm)
			}
		}
	}
	// An exact value: use(2, 1) with K=10 is 1 − C(2,1)/C(10,1) = 0.8.
	if got := at(2, 1); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("use(2, 1) = %g, want 0.8", got)
	}
	// A complete leecher wants nothing.
	for mm := 0; mm <= k; mm++ {
		if at(k, mm) != 0 {
			t.Errorf("use(K, %d) = %g, want 0", mm, at(k, mm))
		}
	}
}

func TestChunkBootstrapSupplyIsSeedOnly(t *testing.T) {
	// At t=0 with only empty leechers, the swarm has zero leecher supply:
	// the total transfer rate must equal exactly σ·seeds, not the
	// aggregate model's μ·η·X + μ·y.
	p := ChunkParams{K: 20, S: 5, Lambda: 0, C: 10, Mu: 1, Eta: 1, Gamma: 0, SeedUpload: 4, SeedFraction: 0}
	m, err := NewChunkModel(p)
	if err != nil {
		t.Fatal(err)
	}
	st := m.InitialState(1000, 2)
	d := make([]float64, m.Dim())
	m.Derivs()(0, st, d)
	// All flow leaves class 0: dN_0 = −F_0 and F_0 = min(demand, σ·y) with
	// demand huge (C·K·N_0·e_0 ≫ 8), so dN_0 = −σ·y = −8.
	if got := -d[0]; math.Abs(got-8) > 1e-9 {
		t.Errorf("bootstrap flow = %g, want σ·seeds = 8", got)
	}
	// Seeds constant (SeedFraction=0, Gamma=0).
	if d[p.K] != 0 {
		t.Errorf("seed derivative = %g, want 0", d[p.K])
	}
}

func TestChunkDrainConservesAndCompletes(t *testing.T) {
	// Drain scenario (λ=0, θ=0, completions leave): leechers must fall
	// monotonically to ~0 while seeds stay constant.
	p := ChunkParams{K: 10, S: 5, Lambda: 0, C: 2, Mu: 0.5, Eta: 1, Gamma: 0, SeedUpload: 5, SeedFraction: 0}
	m, err := NewChunkModel(p)
	if err != nil {
		t.Fatal(err)
	}
	grid := make([]float64, 41)
	for i := range grid {
		grid[i] = float64(i) * 5
	}
	tr, err := m.Solve(context.Background(), 100, 1, 200, grid, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leechers[0] != 100 {
		t.Fatalf("initial leechers %g, want 100", tr.Leechers[0])
	}
	for i := 1; i < len(tr.Leechers); i++ {
		if tr.Leechers[i] > tr.Leechers[i-1]+1e-6 {
			t.Fatalf("leechers increased during drain at t=%g", tr.T[i])
		}
	}
	if final := tr.Leechers[len(tr.Leechers)-1]; final > 1 {
		t.Errorf("drain left %g leechers after t=200", final)
	}
	for i, s := range tr.Seeds {
		if math.Abs(s-1) > 1e-6 {
			t.Errorf("seeds drifted to %g at t=%g", s, tr.T[i])
		}
	}
}

func TestChunkFlowBalanceAtSteadyState(t *testing.T) {
	// With arrivals, departures, and full seeding (ν=1, γ>0), the long-run
	// state must balance: λ ≈ θ·ΣN + γ·y, and the vector-field residual at
	// the settled state must be small relative to λ.
	p := ChunkParams{K: 8, S: 4, Lambda: 2, Theta: 0.01, C: 3, Mu: 1, Eta: 1, Gamma: 1, SeedUpload: 8, SeedFraction: 1}
	m, err := NewChunkModel(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(context.Background(), m.Derivs(), m.InitialState(0, 1), 0, 400, nil, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Final
	sumN := m.Leechers(st)
	seeds := st[p.K]
	out := p.Theta*sumN + p.Gamma*seeds
	if math.Abs(out-p.Lambda) > 0.02*p.Lambda {
		t.Errorf("flow imbalance: outflow %g vs arrivals %g", out, p.Lambda)
	}
	if r := m.Residual(st); r > 0.01*p.Lambda {
		t.Errorf("steady-state residual %g too large", r)
	}
}

func TestChunkNeighborSetSpeedsDrain(t *testing.T) {
	// The whole point of the chunk model: a larger neighbor set raises
	// per-class effectiveness e_j, so (demand-limited) drains finish
	// faster. The aggregate QS model cannot express this.
	drainTime := func(S int) float64 {
		p := ChunkParams{K: 20, S: S, Lambda: 0, C: 0.5, Mu: 10, Eta: 1, Gamma: 0, SeedUpload: 200, SeedFraction: 0}
		m, err := NewChunkModel(p)
		if err != nil {
			t.Fatal(err)
		}
		grid := make([]float64, 401)
		for i := range grid {
			grid[i] = float64(i) * 0.5
		}
		tr, err := m.Solve(context.Background(), 100, 1, 200, grid, SolveOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range tr.Leechers {
			if x < 50 {
				return tr.T[i]
			}
		}
		return math.Inf(1)
	}
	t1, t8 := drainTime(1), drainTime(8)
	if !(t8 < t1) {
		t.Errorf("half-drain with S=8 (%g) not faster than S=1 (%g)", t8, t1)
	}
}

func TestChunkSolveDeterministic(t *testing.T) {
	p := ChunkParams{K: 16, S: 5, Lambda: 1, C: 2, Mu: 0.5, Eta: 0.9, Gamma: 0.5, SeedFraction: 0.5}
	grid := []float64{0, 25, 50, 100}
	run := func() *ChunkTrajectory {
		m, err := NewChunkModel(p)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := m.Solve(context.Background(), 10, 1, 100, grid, SolveOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	for i := range a.Leechers {
		if math.Float64bits(a.Leechers[i]) != math.Float64bits(b.Leechers[i]) ||
			math.Float64bits(a.Seeds[i]) != math.Float64bits(b.Seeds[i]) {
			t.Fatalf("chunk solve not bit-identical at sample %d", i)
		}
	}
	if a.Steps != b.Steps || a.FEvals != b.FEvals {
		t.Fatalf("counters differ: %d/%d vs %d/%d", a.Steps, a.FEvals, b.Steps, b.FEvals)
	}
}

func TestChunkKOneReducesTowardAggregate(t *testing.T) {
	// K=1 collapses the piece structure: a leecher is empty, a single
	// download completes the file. With S=1 the drain dynamics should be
	// within the same ballpark as a QS drain with matched rates (not
	// identical — the effectiveness term differs — but same time scale).
	pc := ChunkParams{K: 1, S: 1, Lambda: 0, C: 1, Mu: 0.25, Eta: 1, Gamma: 0, SeedUpload: 1, SeedFraction: 0}
	m, err := NewChunkModel(pc)
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0, 5, 10, 20, 40}
	tr, err := m.Solve(context.Background(), 50, 5, 40, grid, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leechers[len(tr.Leechers)-1] > tr.Leechers[0]/4 {
		t.Errorf("K=1 drain too slow: %v", tr.Leechers)
	}
}

// TestQSMeanDownloadTimeProperty is the satellite property test: across
// ~200 seeded parameter sets in the θ=0 regime, the trajectory-tail
// estimate of the download time must agree with the closed-form
// steady state once the integration has settled.
func TestQSMeanDownloadTimeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		p := QSParams{
			Lambda: 0.5 + 4.5*rng.Float64(),
			Theta:  0,
			C:      0.5 + 2.5*rng.Float64(),
			Mu:     0.1 + 0.9*rng.Float64(),
			Eta:    0.5 + 0.5*rng.Float64(),
			Gamma:  0.3 + 1.7*rng.Float64(),
		}
		ss, err := p.ClosedFormSteadyState()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ss.DownloadTime <= 0 {
			// Seeds alone can carry the load and the upload branch is
			// non-positive; the closed form documents this regime away.
			continue
		}
		// Start perturbed off the fixed point and integrate long enough to
		// settle (the slowest mode is ~min(γ, c, μη)).
		slowest := math.Min(p.Gamma, math.Min(p.C, p.Mu*p.Eta))
		horizon := 60 / slowest
		grid := make([]float64, 201)
		for i := range grid {
			grid[i] = horizon * float64(i) / 200
		}
		grid[200] = horizon
		tr, _, err := p.SolveAdaptive(context.Background(), 0.5*ss.Leechers, 1.5*ss.Seeds, horizon, grid, SolveOpts{})
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, p, err)
		}
		got := tr.MeanDownloadTime(p.Lambda)
		if math.IsNaN(got) {
			t.Fatalf("trial %d: NaN estimate for %+v", trial, p)
		}
		if rel := math.Abs(got-ss.DownloadTime) / ss.DownloadTime; rel > 0.05 {
			t.Errorf("trial %d: estimate %g vs closed form %g (rel %g) for %+v",
				trial, got, ss.DownloadTime, rel, p)
		}
		checked++
	}
	if checked < 150 {
		t.Fatalf("only %d/200 parameter sets exercised the closed form", checked)
	}
}

func TestQSMeanDownloadTimeNaNContract(t *testing.T) {
	empty := &Trajectory{}
	if !math.IsNaN(empty.MeanDownloadTime(1)) {
		t.Error("empty trajectory must be NaN")
	}
	one := &Trajectory{T: []float64{0}, Leechers: []float64{4}, Seeds: []float64{0}}
	if got := one.MeanDownloadTime(2); got != 2 {
		t.Errorf("single-sample estimate = %g, want 4/2", got)
	}
	for _, lam := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if !math.IsNaN(one.MeanDownloadTime(lam)) {
			t.Errorf("lambda %g must yield NaN", lam)
		}
	}
	// Short trajectories: every n down to 1 uses a non-empty window.
	for n := 1; n <= 7; n++ {
		tr := &Trajectory{Leechers: make([]float64, n)}
		for i := range tr.Leechers {
			tr.Leechers[i] = 10
		}
		if got := tr.MeanDownloadTime(5); got != 2 {
			t.Errorf("n=%d: estimate %g, want 2", n, got)
		}
	}
}
