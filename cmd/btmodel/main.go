// Command btmodel evaluates the multiphased download model directly:
// trading-power curve, expected phase sojourns, Monte-Carlo ensemble
// statistics, and the Section 5 efficiency steady state. -runs and -seed
// drive the ensemble only; every other section is exact.
//
// Usage:
//
//	btmodel -B 200 -k 7 -s 40 -runs 400
//	btmodel -B 20 -k 3 -s 8 -exact          # exact phase analysis, no sampling
//	btmodel -B 100 -seedconns 2 -seedserve 0.5
//	btmodel -B 40 -selfphi                  # self-consistent piece distribution
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	var (
		pieces = flag.Int("B", 200, "number of pieces")
		k      = flag.Int("k", 7, "maximum simultaneous connections")
		s      = flag.Int("s", 40, "neighbor set size")
		pinit  = flag.Float64("pinit", 0.5, "initial connection success probability")
		alpha  = flag.Float64("alpha", 0.1, "bootstrap escape probability per step")
		gamma  = flag.Float64("gamma", 0.1, "last-phase piece-inflow probability per step")
		pr     = flag.Float64("pr", 0.9, "re-encounter (connection persistence) probability")
		pn     = flag.Float64("pn", 0.8, "new-connection success probability")
		runs   = flag.Int("runs", 400, "Monte-Carlo trajectories of the ensemble section")
		seed   = flag.Uint64("seed", 1, "RNG seed of the ensemble section")

		exact     = flag.Bool("exact", false, "exact phase analysis: one sweep over piece levels, no sampling")
		seedConns = flag.Int("seedconns", 0, "seed connections for the Section 7.2 extension")
		seedServe = flag.Float64("seedserve", 0.3, "per-step seed delivery probability")
		selfPhi   = flag.Bool("selfphi", false, "iterate the piece distribution to its self-consistent fixed point")
		logCfg    = obs.RegisterLogFlags(nil)
	)
	flag.Parse()
	logger := logCfg.Logger()

	p := core.Params{
		B: *pieces, K: *k, S: *s,
		PInit: *pinit, Alpha: *alpha, Gamma: *gamma, PR: *pr, PN: *pn,
		Phi: core.UniformPhi(*pieces),
	}
	if err := run(os.Stdout, p, *runs, *seed); err != nil {
		logger.Error("btmodel failed", "err", err)
		os.Exit(1)
	}
	if *exact {
		if err := runExact(os.Stdout, p); err != nil {
			logger.Error("btmodel failed", "err", err)
			os.Exit(1)
		}
	}
	if *seedConns > 0 {
		if err := runSeeded(os.Stdout, p, *seedConns, *seedServe); err != nil {
			logger.Error("btmodel failed", "err", err)
			os.Exit(1)
		}
	}
	if *selfPhi {
		if err := runSelfPhi(os.Stdout, p); err != nil {
			logger.Error("btmodel failed", "err", err)
			os.Exit(1)
		}
	}
}

// runExact prints the exact phase analysis.
func runExact(w io.Writer, p core.Params) error {
	d, err := core.ExactPhaseDurations(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nexact phase analysis (level sweep):\n")
	fmt.Fprintf(w, "  bootstrap %.2f + efficient %.2f + last %.2f = %.2f steps\n",
		d.Bootstrap, d.Efficient, d.Last, d.Total())
	occ, err := core.TransientPhases(p, 30)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  transient phase occupancy:")
	for _, t := range []int{0, 5, 10, 20, 30} {
		fmt.Fprintf(w, "    t=%2d: bootstrap %.3f efficient %.3f last %.3f done %.3f\n",
			t, occ.Bootstrap[t], occ.Efficient[t], occ.Last[t], occ.Done[t])
	}
	return nil
}

// runSeeded prints the Section 7.2 seeding extension, exactly.
func runSeeded(w io.Writer, p core.Params, conns int, serve float64) error {
	speedup, err := core.SeedSpeedup(p, core.SeedParams{Conns: conns, PServe: serve})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nseeding extension (Section 7.2): %d conns @ p=%.2f -> %.2fx speedup\n",
		conns, serve, speedup)
	return nil
}

// runSelfPhi prints the self-consistent piece distribution, exactly.
func runSelfPhi(w io.Writer, p core.Params) error {
	res, err := core.SelfConsistentPhi(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nself-consistent phi: %d iterations, final delta %.4f, entropy %.3f\n",
		res.Iterations, res.FinalDelta, res.Entropy)
	for _, j := range []int{1, p.B / 4, p.B / 2, 3 * p.B / 4, p.B - 1} {
		fmt.Fprintf(w, "  phi(%4d) = %.4f (uniform %.4f)\n", j, res.Phi.At(j), 1/float64(p.B))
	}
	return nil
}

func run(w io.Writer, p core.Params, runs int, seed uint64) error {
	m, err := core.NewModel(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "multiphased download model: B=%d k=%d s=%d\n", p.B, p.K, p.S)
	fmt.Fprintf(w, "expected bootstrap wait (1/alpha): %.1f steps\n", core.ExpectedBootstrapWait(p))
	fmt.Fprintf(w, "expected last-phase wait (1/gamma): %.1f steps\n\n", core.ExpectedLastPhaseWait(p))

	fmt.Fprintln(w, "trading power p_(x) (Equation 1, uniform phi):")
	for _, x := range []int{1, p.B / 4, p.B / 2, 3 * p.B / 4, p.B - 1} {
		fmt.Fprintf(w, "  p_(%4d) = %.4f\n", x, m.TradingPower(x))
	}
	fmt.Fprintln(w)

	es, err := m.Ensemble(stats.NewRNG(seed, seed^0xB17), runs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ensemble of %d downloads:\n", runs)
	fmt.Fprintf(w, "  completion steps: mean %.1f, median %.1f, p25 %.1f, p75 %.1f\n",
		es.CompletionSteps.Mean, es.CompletionSteps.Median,
		es.CompletionSteps.P25, es.CompletionSteps.P75)
	if es.Truncated > 0 {
		fmt.Fprintf(w, "  never completed: %d of %d runs (stranded or at the step cap)\n", es.Truncated, runs)
	}
	fmt.Fprintf(w, "  phases: bootstrap %.1f, efficient %.1f, last %.1f steps on average\n",
		es.Phases.MeanBootstrap, es.Phases.MeanEfficient, es.Phases.MeanLast)
	fmt.Fprintf(w, "  stuck in bootstrap: %.1f%% of runs; entered last phase: %.1f%%\n\n",
		100*es.Phases.FracStuckBootstrap, 100*es.Phases.FracLastPhase)

	fmt.Fprintln(w, "efficiency steady state (Section 5, calibrated p_r):")
	for kk := 1; kk <= p.K+1; kk++ {
		res, err := core.SolveEfficiency(core.EfficiencyParams{K: kk, PR: core.CalibratedPR(kk)}, 1e-9, 500000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  k=%d: eta=%.4f (p_r=%.3f, %d iterations)\n",
			kk, res.Eta, core.CalibratedPR(kk), res.Iterations)
	}
	return nil
}
