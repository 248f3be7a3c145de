package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/fluid"
	"repro/internal/par"
	"repro/internal/sim"
)

// FluidConvergenceResult is the sim-to-fluid convergence study: the same
// steady-arrival scenario run at increasing swarm scales N, each scaled
// population path X_sim(t)/N compared against the chunk-level fluid
// trajectory x(t) over the stationary window. The fluid model is the
// deterministic large-population limit, so the scaled error must shrink
// as N grows — the property the CI gate asserts.
//
// The comparison deliberately scores the quasi-stationary tracking
// window, not the bootstrap transient: the transient's shape depends on
// protocol details the mean-field model averages out (a bias that does
// not vanish in N), while the stationary level converges — the single
// calibrated η absorbs the level bias at the largest N, the residual
// finite-size level shift decays like 1/N, and the fluctuation term
// decays like 1/√N.
type FluidConvergenceResult struct {
	// Ns are the swarm scales, ascending: the arrival rate is N/25 and
	// the origin-seed count N/100, so the stationary population is
	// proportional to N.
	Ns []int
	// Seeds[i] is the origin-seed count used at Ns[i] (N/100, min 1).
	Seeds []int
	// Pieces is the piece count K shared by the sim and the chunk model.
	Pieces int
	// Eta is the trading-efficiency scalar calibrated once against the
	// largest-N runs; every row is scored with this single value.
	Eta float64
	// Reps is the number of replicate seeds averaged per row.
	Reps int
	// Err[i] is the RMSE of X_sim(t)/Ns[i] against the fluid x(t) over
	// the stationary window t ≥ fluidConvWarmup, averaged over the
	// replicate seeds.
	Err []float64
	// SimLevel[i] is the replicate-averaged mean scaled population over
	// the window; FluidLevel is the fluid trajectory's mean over the same
	// window — the two levels the error column compares.
	SimLevel, FluidLevel []float64
	// Monotone reports whether Err strictly decreases in N.
	Monotone bool
}

// drainRun is one simulated scenario replicate: census times and the
// scaled leecher-population path extracted from the piece census.
type drainRun struct {
	t []float64
	x []float64 // Σ_b Census[i][b] / N
}

// Scenario constants: every run integrates to fluidConvHorizon and is
// scored on [fluidConvWarmup, fluidConvHorizon], after both the sim and
// the fluid trajectory have settled onto the stationary level.
const (
	fluidConvHorizon = 160.0
	fluidConvWarmup  = 60.0
)

// fluidConvChunkParams maps the sim scenario onto the chunk model in
// scaled (per-N) units. Rates follow sim units (PieceTime = 1): a
// leecher moves at most MaxConns pieces per round each way, so
// C·K = Mu·K = MaxConns; σ is the per-seed pieces-per-round knob
// verbatim; λ = 1/25 matches ArrivalRate = N/25 per capita. Theta,
// Gamma and SeedFraction stay zero — no aborts, completions leave
// immediately, and the origin seeds never depart — matching the sim
// configuration in fluidConvSim.
func fluidConvChunkParams(pieces, maxConns, seedUpload int, eta float64) fluid.ChunkParams {
	return fluid.ChunkParams{
		K:          pieces,
		S:          maxConns,
		Lambda:     1.0 / 25,
		C:          float64(maxConns) / float64(pieces),
		Mu:         float64(maxConns) / float64(pieces),
		Eta:        eta,
		SeedUpload: float64(seedUpload),
	}
}

// fluidConvSim builds the steady-arrival scenario at scale n: n/10 empty
// leechers and n/100 origin seeds at time zero, Poisson arrivals at rate
// n/25, no aborts, departure on completion.
func fluidConvSim(pieces, n int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Pieces = pieces
	cfg.ArrivalRate = float64(n) / 25
	cfg.InitialPeers = n / 10
	cfg.Seeds = n / 100
	if cfg.Seeds < 1 {
		cfg.Seeds = 1
	}
	cfg.AbortRate = 0
	cfg.SeedLingerRounds = 0
	cfg.Horizon = fluidConvHorizon
	cfg.TrackPeers = 0
	cfg.PieceCensus = true
	cfg.Seed1 = uint64(n)
	cfg.Seed2 = 0xF10C
	return cfg
}

// runFluidConvSim executes one scenario replicate and extracts the
// scaled population path from the piece census.
func runFluidConvSim(pieces, n, rep int) (drainRun, error) {
	cfg := fluidConvSim(pieces, n)
	cfg.Seed2 += uint64(rep)
	sw, err := sim.New(cfg)
	if err != nil {
		return drainRun{}, fmt.Errorf("fluidconv N=%d: %w", n, err)
	}
	res, err := sw.Run()
	if err != nil {
		return drainRun{}, fmt.Errorf("fluidconv N=%d: %w", n, err)
	}
	if len(res.Census) == 0 {
		return drainRun{}, fmt.Errorf("fluidconv N=%d: no census rows", n)
	}
	run := drainRun{
		t: res.CensusT,
		x: make([]float64, len(res.Census)),
	}
	for i, row := range res.Census {
		sum := 0
		for _, c := range row {
			sum += int(c)
		}
		run.x[i] = float64(sum) / float64(n)
	}
	return run, nil
}

// solveFluidConv integrates the chunk model in scaled units (x0 = 1/10,
// y0 = seeds/N) sampled exactly on the sim's census grid. The vector
// field is homogeneous of degree one, so scaled units lose nothing.
func solveFluidConv(p fluid.ChunkParams, y0 float64, grid []float64) (*fluid.ChunkTrajectory, error) {
	m, err := fluid.NewChunkModel(p)
	if err != nil {
		return nil, err
	}
	horizon := grid[len(grid)-1]
	return m.Solve(context.Background(), 0.1, y0, horizon, grid, fluid.SolveOpts{})
}

// windowRMSE scores a fluid trajectory against the scaled sim path on
// the shared grid, restricted to the stationary window t ≥ warmup.
func windowRMSE(simT, simX []float64, fl *fluid.ChunkTrajectory) float64 {
	sum, n := 0.0, 0
	for i, fx := range fl.Leechers {
		if i >= len(simX) || simT[i] < fluidConvWarmup {
			continue
		}
		d := simX[i] - fx
		sum += d * d
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Sqrt(sum / float64(n))
}

// windowMean averages a path over the stationary window.
func windowMean(t, x []float64) float64 {
	sum, n := 0.0, 0
	for i := range x {
		if t[i] < fluidConvWarmup {
			continue
		}
		sum += x[i]
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// calibrateEta fits the single trading-efficiency scalar η against the
// largest-N replicates: a coarse scan over [0.05, 1] followed by a
// golden-section refinement of the best bracket, minimizing the mean
// windowed RMSE. Deterministic: fixed probe sequence, no randomness.
func calibrateEta(pieces, maxConns, seedUpload int, y0 float64, runs []drainRun) (float64, error) {
	eval := func(eta float64) (float64, error) {
		sum := 0.0
		for _, run := range runs {
			tr, err := solveFluidConv(fluidConvChunkParams(pieces, maxConns, seedUpload, eta), y0, run.t)
			if err != nil {
				return 0, err
			}
			sum += windowRMSE(run.t, run.x, tr)
		}
		return sum / float64(len(runs)), nil
	}
	bestEta, bestErr := 0.0, math.Inf(1)
	for i := 1; i <= 20; i++ {
		eta := float64(i) * 0.05
		r, err := eval(eta)
		if err != nil {
			return 0, fmt.Errorf("fluidconv calibrate eta=%.2f: %w", eta, err)
		}
		if r < bestErr {
			bestEta, bestErr = eta, r
		}
	}
	if math.IsInf(bestErr, 1) {
		return 0, fmt.Errorf("fluidconv: calibration found no usable eta")
	}
	lo, hi := bestEta-0.05, bestEta+0.05
	if lo < 0.01 {
		lo = 0.01
	}
	if hi > 1 {
		hi = 1
	}
	const invphi = 0.6180339887498949
	a, b := hi-invphi*(hi-lo), lo+invphi*(hi-lo)
	fa, err := eval(a)
	if err != nil {
		return 0, err
	}
	fb, err := eval(b)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 24 && hi-lo > 1e-4; i++ {
		if fa < fb {
			hi, b, fb = b, a, fa
			a = hi - invphi*(hi-lo)
			if fa, err = eval(a); err != nil {
				return 0, err
			}
		} else {
			lo, a, fa = a, b, fb
			b = lo + invphi*(hi-lo)
			if fb, err = eval(b); err != nil {
				return 0, err
			}
		}
	}
	return (lo + hi) / 2, nil
}

// FluidConvergence runs the sim-to-fluid convergence study: the
// steady-arrival scenario at three scales, scored against the
// chunk-level fluid trajectory with one η calibrated at the largest N.
// The Monotone verdict is the CI gate; see FluidConvergenceResult for
// why the error is expected to shrink strictly in N.
func FluidConvergence(scale Scale) (*FluidConvergenceResult, error) {
	logger.Debug("fluid convergence: start", "scale", scale.String())
	defer observeWalltime("fluidconv", time.Now())
	const pieces, reps = 20, 3
	ns := []int{250, 1000, 4000}
	if scale == Full {
		ns = []int{1000, 10000, 100000}
	}
	cfg := sim.DefaultConfig()
	flat, err := par.Map(context.Background(), len(ns)*reps, 0, func(i int) (drainRun, error) {
		return runFluidConvSim(pieces, ns[i/reps], i%reps)
	})
	if err != nil {
		return nil, err
	}
	out := &FluidConvergenceResult{
		Ns:         ns,
		Pieces:     pieces,
		Reps:       reps,
		Err:        make([]float64, len(ns)),
		SimLevel:   make([]float64, len(ns)),
		FluidLevel: make([]float64, len(ns)),
	}
	seedFrac := make([]float64, len(ns))
	for i, n := range ns {
		s := n / 100
		if s < 1 {
			s = 1
		}
		out.Seeds = append(out.Seeds, s)
		seedFrac[i] = float64(s) / float64(n)
	}
	last := len(ns) - 1
	eta, err := calibrateEta(pieces, cfg.MaxConns, cfg.SeedUpload, seedFrac[last], flat[last*reps:last*reps+reps])
	if err != nil {
		return nil, err
	}
	out.Eta = eta
	for i := range ns {
		errSum, simSum, fluidSum := 0.0, 0.0, 0.0
		for r := 0; r < reps; r++ {
			run := flat[i*reps+r]
			tr, err := solveFluidConv(fluidConvChunkParams(pieces, cfg.MaxConns, cfg.SeedUpload, eta), seedFrac[i], run.t)
			if err != nil {
				return nil, fmt.Errorf("fluidconv N=%d: %w", ns[i], err)
			}
			errSum += windowRMSE(run.t, run.x, tr)
			simSum += windowMean(run.t, run.x)
			fluidSum += windowMean(tr.T, tr.Leechers)
		}
		out.Err[i] = errSum / reps
		out.SimLevel[i] = simSum / reps
		out.FluidLevel[i] = fluidSum / reps
		logger.Debug("fluid convergence: row", "n", ns[i], "rmse", out.Err[i])
	}
	out.Monotone = true
	for i := 1; i < len(out.Err); i++ {
		if !(out.Err[i] < out.Err[i-1]) {
			out.Monotone = false
		}
	}
	return out, nil
}

// Table renders the convergence study.
func (r *FluidConvergenceResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Convergence: sim vs chunk-level fluid limit, stationary window (K=%d, eta=%.4f, %d reps)",
			r.Pieces, r.Eta, r.Reps),
		Columns: []string{"N", "seeds", "scaled RMSE", "sim level", "fluid level"},
	}
	for i := range r.Ns {
		t.AddRow(float64(r.Ns[i]), float64(r.Seeds[i]), r.Err[i], r.SimLevel[i], r.FluidLevel[i])
	}
	return t
}
