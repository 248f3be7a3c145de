package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/fluid"
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
// not vanish in N), while the stationary level converges — the
// finite-size level shift decays like 1/N and the fluctuation term like
// 1/√N. Nothing is fitted: each replicate is scored with the §5 η
// predicted at its own measured p_r (modelEta), so what remains at the
// largest N is that prediction's gap to the sim's realised slot use.
type FluidConvergenceResult struct {
	// Ns are the swarm scales, ascending: the arrival rate is N/25 and
	// the origin-seed count N/100, so the stationary population is
	// proportional to N.
	Ns []int
	// Seeds[i] is the origin-seed count used at Ns[i] (N/100, min 1).
	Seeds []int
	// Pieces is the piece count K shared by the sim and the chunk model.
	Pieces int
	// Eta[i] is the mean over Ns[i]'s replicates of the §5 η each
	// replicate was scored with (modelEta of that run).
	Eta []float64
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

// drainRun is one simulated scenario replicate: census times, the
// scaled leecher-population path extracted from the piece census, and
// the run mapped onto the chunk model it is scored against.
type drainRun struct {
	t     []float64
	x     []float64         // Σ_b Census[i][b] / N
	p     fluid.ChunkParams // at the model η of the run's measured p_r
	seeds int               // origin seeds; y0 = seeds / N
}

// Scenario constants: every run integrates to fluidConvHorizon and is
// scored on [fluidConvWarmup, fluidConvHorizon], after both the sim and
// the fluid trajectory have settled onto the stationary level.
const (
	fluidConvHorizon = 160.0
	fluidConvWarmup  = 60.0
)

// fluidConvChunkParams maps a run of the scenario at scale n onto the
// chunk model in scaled (per-N) units, at trading efficiency eta. Rates
// follow sim units (one round per time unit): a leecher moves at most MaxConns
// pieces per round each way, so C·K = Mu·K = MaxConns; σ is the per-seed
// pieces-per-round knob verbatim; λ is ArrivalRate per capita. Theta,
// Gamma and SeedFraction stay zero — no aborts, completions leave
// immediately, and the origin seeds never depart — matching the sim
// configuration in fluidConvSim.
func fluidConvChunkParams(cfg sim.Config, n int, eta float64) fluid.ChunkParams {
	rate := float64(cfg.MaxConns) / float64(cfg.Pieces)
	return fluid.ChunkParams{
		K:          cfg.Pieces,
		S:          cfg.MaxConns,
		Lambda:     cfg.ArrivalRate / float64(n),
		C:          rate,
		Mu:         rate,
		Eta:        eta,
		SeedUpload: float64(cfg.SeedUpload),
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

// drainOf reduces one scenario replicate at scale n to its scaled
// population path, extracted from the piece census.
func drainOf(cfg sim.Config, n int, res *sim.Result) (drainRun, error) {
	if len(res.Census) == 0 {
		return drainRun{}, errors.New("no census rows")
	}
	eta, _, err := modelEta(cfg.MaxConns, res)
	if err != nil {
		return drainRun{}, err
	}
	run := drainRun{
		t:     res.CensusT,
		x:     make([]float64, len(res.Census)),
		p:     fluidConvChunkParams(cfg, n, eta),
		seeds: cfg.Seeds,
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

// FluidConvergence runs the sim-to-fluid convergence study: the
// steady-arrival scenario at three scales, scored against the
// chunk-level fluid trajectory, each replicate with its own predicted η.
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
	// One job per (N, replicate), N-major; replicate r shifts Seed2 by r.
	cfgs := make([]sim.Config, len(ns)*reps)
	for i := range cfgs {
		cfgs[i] = fluidConvSim(pieces, ns[i/reps])
		cfgs[i].Seed2 += uint64(i % reps)
	}
	flat, err := sweep("fluidconv", cfgs, func(i int, res *sim.Result) (drainRun, error) {
		return drainOf(cfgs[i], ns[i/reps], res)
	})
	if err != nil {
		return nil, err
	}
	out := &FluidConvergenceResult{
		Ns:         ns,
		Pieces:     pieces,
		Reps:       reps,
		Eta:        make([]float64, len(ns)),
		Err:        make([]float64, len(ns)),
		SimLevel:   make([]float64, len(ns)),
		FluidLevel: make([]float64, len(ns)),
	}
	for i, n := range ns {
		out.Seeds = append(out.Seeds, flat[i*reps].seeds)
		etaSum, errSum, simSum, fluidSum := 0.0, 0.0, 0.0, 0.0
		for r := 0; r < reps; r++ {
			run := flat[i*reps+r]
			tr, err := solveFluidConv(run.p, float64(run.seeds)/float64(n), run.t)
			if err != nil {
				return nil, fmt.Errorf("fluidconv N=%d: %w", n, err)
			}
			etaSum += run.p.Eta
			errSum += windowRMSE(run.t, run.x, tr)
			simSum += windowMean(run.t, run.x)
			fluidSum += windowMean(tr.T, tr.Leechers)
		}
		out.Eta[i] = etaSum / reps
		out.Err[i] = errSum / reps
		out.SimLevel[i] = simSum / reps
		out.FluidLevel[i] = fluidSum / reps
		logger.Debug("fluid convergence: row", "n", n, "rmse", out.Err[i])
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
		Title: fmt.Sprintf("Convergence: sim vs chunk-level fluid limit at the model eta, stationary window (K=%d, %d reps)",
			r.Pieces, r.Reps),
		Columns: []string{"N", "seeds", "model eta", "scaled RMSE", "sim level", "fluid level"},
	}
	for i := range r.Ns {
		t.AddRow(float64(r.Ns[i]), float64(r.Seeds[i]), r.Eta[i], r.Err[i], r.SimLevel[i], r.FluidLevel[i])
	}
	return t
}
